package main

import (
	"fmt"
	"math"
	"slices"
)

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// (the default exclusive method) gives them.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank, may be fractional
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// runRepeat runs every workload n times, each on its own seed, and
// prints per end-to-end metric the min, median, max and the relative
// spread — interquartile distance over median, the driver's measure —
// against the metric's bound. A spread over the bound means a
// difference of that size between two commits is unresolved, not a
// regression; runRepeat returns an error naming such metrics.
func runRepeat(ws []workload, seed int64, seconds float64, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	var wide []string
	for _, w := range ws {
		vals := make(map[string][]float64)
		for i := 0; i < n; i++ {
			r, err := runEndToEnd(w, seed+int64(i), seconds)
			if err != nil {
				return err
			}
			if !r.correct() {
				return fmt.Errorf("%s: seed %d: %d of %d failed", w.name, seed+int64(i), r.failed, r.attempted)
			}
			for _, d := range endToEnd {
				vals[d.name] = append(vals[d.name], r.metrics[d.name])
			}
		}
		for _, d := range endToEnd {
			v := vals[d.name]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := math.Abs((q3 - q1) / med)
			flag := ""
			if d.name != "setup_s" && spread > d.bound {
				flag = " UNRESOLVED"
				wide = append(wide, w.name+"/"+d.name)
			}
			fmt.Printf("%s %s min=%.6g median=%.6g max=%.6g spread=%.2f%% bound=%.1f%%%s\n",
				w.name, d.name, slices.Min(v), med, slices.Max(v), spread*100, d.bound*100, flag)
		}
	}
	if len(wide) > 0 {
		return fmt.Errorf("spread exceeds bound on %v", wide)
	}
	return nil
}
