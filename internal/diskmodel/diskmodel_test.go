package diskmodel

import (
	"testing"
	"testing/quick"
	"time"

	"xprs/internal/vclock"
)

func testConfig() Config {
	return Config{
		NumDisks:         4,
		SeqService:       10 * time.Millisecond,
		AlmostSeqService: 16 * time.Millisecond,
		RandomService:    28 * time.Millisecond,
		AlmostSeqWindow:  16,
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.SeqBandwidth(); got < 385 || got > 391 {
		t.Fatalf("seq bandwidth = %.1f io/s, want ~388 (4 x 97)", got)
	}
	if got := cfg.AlmostSeqBandwidth(); got < 238 || got > 242 {
		t.Fatalf("almost-seq bandwidth = %.1f io/s, want ~240 (4 x 60)", got)
	}
	if got := cfg.RandomBandwidth(); got < 138 || got > 142 {
		t.Fatalf("random bandwidth = %.1f io/s, want ~140 (4 x 35)", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero disks", func(c *Config) { c.NumDisks = 0 }},
		{"negative disks", func(c *Config) { c.NumDisks = -1 }},
		{"zero seq", func(c *Config) { c.SeqService = 0 }},
		{"zero almost", func(c *Config) { c.AlmostSeqService = 0 }},
		{"zero random", func(c *Config) { c.RandomService = 0 }},
		{"negative window", func(c *Config) { c.AlmostSeqWindow = -1 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestStriping(t *testing.T) {
	v := vclock.NewVirtual()
	a := New(v, testConfig())
	for b := int64(0); b < 16; b++ {
		if got, want := a.DiskFor(b), int(b%4); got != want {
			t.Fatalf("DiskFor(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestSequentialScanClassification(t *testing.T) {
	v := vclock.NewVirtual()
	a := New(v, testConfig())
	v.Run(func() {
		// A single stream reading blocks 0..39 in order: first touch of
		// each disk is a seek, everything after is sequential.
		for b := int64(0); b < 40; b++ {
			a.Read(1, b)
		}
	})
	s := a.Stats()
	if s.Reads[Random] != 4 {
		t.Fatalf("random reads = %d, want 4 (one cold seek per disk)", s.Reads[Random])
	}
	if s.Reads[Sequential] != 36 {
		t.Fatalf("sequential reads = %d, want 36", s.Reads[Sequential])
	}
	if s.Reads[AlmostSequential] != 0 {
		t.Fatalf("almost-seq reads = %d, want 0", s.Reads[AlmostSequential])
	}
}

func TestInterleavedRelationsGoRandom(t *testing.T) {
	v := vclock.NewVirtual()
	a := New(v, testConfig())
	v.Run(func() {
		// Strict ABAB interleave of two relations on the same blocks: every
		// request follows the other relation, so all are seeks.
		for b := int64(0); b < 20; b++ {
			a.Read(1, b)
			a.Read(2, b)
		}
	})
	s := a.Stats()
	if s.Reads[Random] != s.TotalReads() {
		t.Fatalf("reads = %+v, want all random", s.Reads)
	}
}

func TestAlmostSequentialWindow(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := testConfig()
	cfg.NumDisks = 1
	a := New(v, cfg)
	v.Run(func() {
		a.Read(1, 0)  // cold: random
		a.Read(1, 1)  // sequential
		a.Read(1, 5)  // gap 4 <= 16: almost-seq
		a.Read(1, 3)  // backward 2: almost-seq
		a.Read(1, 40) // gap 37 > 16: random
		a.Read(1, 40) // same block: sequential
	})
	s := a.Stats()
	if s.Reads[Sequential] != 2 || s.Reads[AlmostSequential] != 2 || s.Reads[Random] != 2 {
		t.Fatalf("classification = %+v, want 2/2/2", s.Reads)
	}
}

func TestServiceTimesAccumulate(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := testConfig()
	cfg.NumDisks = 1
	a := New(v, cfg)
	var elapsed time.Duration
	v.Run(func() {
		a.Read(1, 0) // random: 28ms
		a.Read(1, 1) // seq: 10ms
		a.Read(1, 2) // seq: 10ms
		elapsed = v.Now()
	})
	if want := 48 * time.Millisecond; elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if got := a.Stats().Busy; got != 48*time.Millisecond {
		t.Fatalf("busy = %v, want 48ms", got)
	}
}

func TestQueueingUnderContention(t *testing.T) {
	// Two goroutines hammer the same single disk; total elapsed must equal
	// the sum of the service times (FIFO, no overlap on one spindle).
	v := vclock.NewVirtual()
	cfg := testConfig()
	cfg.NumDisks = 1
	a := New(v, cfg)
	var elapsed time.Duration
	v.Run(func() {
		done1 := make(chan struct{}, 1)
		done2 := make(chan struct{}, 1)
		v.Go(func() {
			for i := int64(0); i < 10; i++ {
				a.Read(1, i)
			}
			v.Signal(done1)
		})
		v.Go(func() {
			for i := int64(0); i < 10; i++ {
				a.Read(2, i)
			}
			v.Signal(done2)
		})
		v.WaitSignal(done1)
		v.WaitSignal(done2)
		elapsed = v.Now()
	})
	s := a.Stats()
	if s.TotalReads() != 20 {
		t.Fatalf("reads = %d, want 20", s.TotalReads())
	}
	if elapsed != s.Busy {
		t.Fatalf("elapsed %v != total service %v; single disk must serialize", elapsed, s.Busy)
	}
	if s.Queued == 0 {
		t.Fatalf("expected queueing delay under contention")
	}
}

func TestParallelDisksOverlap(t *testing.T) {
	// Four goroutines each reading a distinct disk finish in the time of
	// one, not four.
	v := vclock.NewVirtual()
	a := New(v, testConfig())
	var elapsed time.Duration
	v.Run(func() {
		chs := make([]chan struct{}, 4)
		for i := 0; i < 4; i++ {
			i := i
			chs[i] = make(chan struct{}, 1)
			v.Go(func() {
				for k := int64(0); k < 5; k++ {
					a.Read(1, int64(i)+4*k) // stays on disk i
				}
				v.Signal(chs[i])
			})
		}
		for _, ch := range chs {
			v.WaitSignal(ch)
		}
		elapsed = v.Now()
	})
	// Per disk: 1 random (28ms) + 4 sequential (40ms) = 68ms.
	if want := 68 * time.Millisecond; elapsed != want {
		t.Fatalf("elapsed = %v, want %v (disks overlap)", elapsed, want)
	}
}

func TestResetStats(t *testing.T) {
	v := vclock.NewVirtual()
	cfg := testConfig()
	cfg.NumDisks = 1
	a := New(v, cfg)
	v.Run(func() {
		for i := int64(0); i < 10; i++ {
			a.Read(1, i)
		}
	})
	if got := a.Stats().TotalReads(); got != 10 {
		t.Fatalf("reads = %d, want 10", got)
	}
	a.ResetStats()
	if got := a.Stats().TotalReads(); got != 0 {
		t.Fatalf("reads after reset = %d", got)
	}
}

func TestNegativeBlockPanics(t *testing.T) {
	v := vclock.NewVirtual()
	a := New(v, testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative block")
		}
	}()
	v.Run(func() { a.Read(1, -1) })
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(vclock.NewVirtual(), Config{})
}

// Property: a pure sequential scan is never slower than the same blocks
// read in any permuted order (seeks only ever add service time).
func TestPropertySequentialNoSlowerThanPermuted(t *testing.T) {
	f := func(seed uint8) bool {
		n := int64(3 + seed%30)
		scan := func(perm bool) time.Duration {
			v := vclock.NewVirtual()
			cfg := testConfig()
			cfg.NumDisks = 1
			a := New(v, cfg)
			var el time.Duration
			v.Run(func() {
				if perm {
					// Reverse order: worst case for the head.
					for i := n - 1; i >= 0; i-- {
						a.Read(1, i)
					}
				} else {
					for i := int64(0); i < n; i++ {
						a.Read(1, i)
					}
				}
				el = v.Now()
			})
			return el
		}
		return scan(false) <= scan(true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIOClassString(t *testing.T) {
	if Sequential.String() != "sequential" ||
		AlmostSequential.String() != "almost-sequential" ||
		Random.String() != "random" {
		t.Fatal("IOClass strings wrong")
	}
	if IOClass(99).String() == "" {
		t.Fatal("unknown class must stringify")
	}
}
