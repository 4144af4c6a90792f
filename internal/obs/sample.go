package obs

// Deterministic head-based trace sampling. The decision to trace a
// query is made once at submission from a seeded hash of (tenant, qid):
// no clock, no global RNG, no mutable state. Because qids are assigned
// in intake order — itself deterministic under the virtual clock — the
// sampled set is byte-identical across reruns and GOMAXPROCS settings,
// which is what lets a sampled trace participate in the repo's
// determinism proofs instead of breaking them.

// Sampler decides which queries get traced. A nil Sampler samples
// everything, so callers can hold a nil pointer when sampling is off.
type Sampler struct {
	seed  uint64
	oneIn uint64
}

// NewSampler returns a sampler tracing one in oneIn queries, keyed on
// seed. oneIn <= 1 returns nil: every query is sampled.
func NewSampler(seed int64, oneIn int) *Sampler {
	if oneIn <= 1 {
		return nil
	}
	return &Sampler{seed: uint64(seed), oneIn: uint64(oneIn)}
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Sample reports whether the query identified by (tenant, qid) is
// traced. The decision is a pure function of the sampler seed and the
// identity — no allocation, no state — so it can sit inside the submit
// fast path's critical section.
func (s *Sampler) Sample(tenant string, qid int) bool {
	if s == nil {
		return true
	}
	h := uint64(fnvOffset64)
	v := s.seed
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= fnvPrime64
	}
	v = uint64(qid)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h%s.oneIn == 0
}
