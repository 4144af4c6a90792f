package exec

import (
	"hash/crc32"

	"xprs/internal/storage"
)

// A counted root output stores no rows: it keeps their count and the
// wrapping sum of one 64-bit hash per row (Report.Checksum). The sum is
// order-independent, so slaves fold their batches in whatever order
// they finish, and it does not depend on where batch boundaries fall.
//
// A row's hash folds its column values in column order, an int4 as its
// 32 bits and a text value as the CRC-32C of its payload beside the
// payload length, and ends in a 64-bit finalizer so a sum of hashes
// carries every bit of every row.

// castagnoli is the CRC-32C table; hash/crc32 runs it on the CPU's CRC
// instruction where there is one (SSE4.2 on amd64, arm64's CRC32).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	rowHashSeed  = 0xcbf29ce484222325 // FNV-64's offset basis
	rowHashPrime = 0x100000001b3      // FNV-64's prime
)

// textHash remembers a text column's last payload: its span and hash.
type textHash struct {
	s, e int32
	h    uint64
}

// payload returns the hash of row's text in v. A row with the previous
// row's span, or with a span over equal bytes, reuses its hash without
// hashing: the rule textSpan appends by, so a run of one padded payload
// is hashed once per batch.
func (p *textHash) payload(v *storage.Vec, row int) uint64 {
	s, e := v.Off[row], v.End[row]
	if s == p.s && e == p.e {
		return p.h
	}
	b := v.Buf[s:e]
	if p.s < 0 || e-s != p.e-p.s || string(v.Buf[p.s:p.e]) != string(b) {
		p.h = uint64(crc32.Checksum(b, castagnoli)) | uint64(len(b))<<32
	}
	p.s, p.e = s, e
	return p.h
}

// mix64 is MurmurHash3's 64-bit finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// rowHashSum returns the wrapping sum of the hashes of b's live rows.
// Pruned columns add nothing.
func rowHashSum(b *storage.ColBatch) uint64 {
	var buf [8]textHash
	st := buf[:0]
	if len(b.Vecs) > len(buf) {
		st = make([]textHash, 0, len(b.Vecs))
	}
	for range b.Vecs {
		st = append(st, textHash{s: -1, e: -1})
	}
	var sum uint64
	for i, live := 0, b.Live(); i < live; i++ {
		row := b.RowAt(i)
		h := uint64(rowHashSeed)
		for c := range b.Vecs {
			v := &b.Vecs[c]
			var x uint64
			switch {
			case v.Pruned():
				continue
			case v.Typ == storage.Int4:
				x = uint64(uint32(v.Ints[row]))
			default:
				x = st[c].payload(v, row)
			}
			h = (h ^ x) * rowHashPrime
		}
		sum += mix64(h)
	}
	return sum
}
