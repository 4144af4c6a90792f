package cost_test

import (
	"fmt"
	"testing"

	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/storage"
	"xprs/internal/vclock"
	"xprs/internal/workload"
)

// TestTupleSizeForRateGeneratedRates checks TupleSizeForRate against the
// brute-force scan on every rate the §3 workload generator draws: each
// workload kind under both length models at seeds 1992–2011. These are
// the inversions every scan_mix cell and Figure 7 run performs.
func TestTupleSizeForRateGeneratedRates(t *testing.T) {
	p := cost.DefaultParams(diskmodel.DefaultConfig(), 8)
	v := vclock.NewVirtual()
	st := storage.NewStore(v, diskmodel.New(v, diskmodel.DefaultConfig()), 0)
	brute := cost.BruteTupleSizeForRate(p)
	n := 0
	for seed := int64(1992); seed <= 2011; seed++ {
		for _, k := range workload.Kinds() {
			for _, lm := range []workload.LengthModel{workload.WorkBalanced, workload.PaperTuples} {
				prefix := fmt.Sprintf("g%d_%d_%d", seed, k, lm)
				_, infos, err := workload.GenerateWith(st, p, k, seed, prefix, 0, lm)
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range infos {
					if got, want := p.TupleSizeForRate(in.TargetRate), brute(in.TargetRate); got != want {
						t.Fatalf("seed %d %v %v: rate %v gives size %v, the scan %v", seed, k, lm, in.TargetRate, got, want)
					}
					n++
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("the generator drew no rates")
	}
}
