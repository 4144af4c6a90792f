// Multiquery: the multi-user scenario of §3 — a mix of IO-bound and
// CPU-bound selection tasks from different "users", each submitted
// online to a live scheduler session at its own arrival time, run under
// all three scheduling algorithms. With an admission cap of two
// concurrent queries, late arrivals queue and their reports carry the
// wait. This is a hands-on miniature of Figure 7 on the §2.5 online
// path.
package main

import (
	"fmt"
	"log"
	"time"

	"xprs"
)

func main() {
	type user struct {
		name    string
		rate    float64 // sequential-scan IO rate (io/s)
		tuples  int64
		lo, hi  int32
		arrival time.Duration // when the user submits
	}
	users := []user{
		{"u1_bigscan", 65, 40000, 0, 1 << 30, 0},              // extremely IO-bound
		{"u2_filter", 9, 120000, 500, 90000, 0},               // extremely CPU-bound
		{"u3_report", 55, 30000, 0, 1 << 30, 2 * time.Second}, // IO-bound, arrives late
		{"u4_crunch", 12, 100000, 0, 50000, 4 * time.Second},  // CPU-bound, arrives later
	}
	adm := xprs.Admission{MaxQueries: 2}

	for _, policy := range []xprs.Policy{xprs.IntraOnly, xprs.InterNoAdj, xprs.InterAdj} {
		// Fresh system per policy so runs are independent and identical
		// in their inputs.
		sys := xprs.New(xprs.DefaultConfig())
		schedule := make([]xprs.Arrival, len(users))
		for i, u := range users {
			if _, err := sys.CreateScanRelation(u.name, u.rate, u.tuples); err != nil {
				log.Fatal(err)
			}
			spec, err := sys.SelectTask(i, u.name, u.lo, u.hi)
			if err != nil {
				log.Fatal(err)
			}
			schedule[i] = xprs.Arrival{At: u.arrival, Specs: []xprs.TaskSpec{spec}}
		}

		// One live session per policy: Replay submits each user's query
		// online at its arrival instant and returns the per-query reports.
		outs, err := sys.Replay(policy, xprs.SchedOptions{}, adm, schedule)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-18s makespan %8.2fs\n", policy, xprs.Summarize(outs).Makespan.Seconds())
		for i, out := range outs {
			rep := out.Report // no MaxQueued, so nothing is shed
			fmt.Printf("    %-12s submitted %6.2fs  queued %6.2fs  response %8.2fs\n",
				users[i].name, rep.SubmittedAt.Seconds(), rep.QueueWait.Seconds(), rep.Elapsed.Seconds())
			for _, ev := range rep.Trace {
				fmt.Printf("        %v\n", ev)
			}
		}
	}
	fmt.Println("\nQueries are submitted online while earlier ones execute; the controller")
	fmt.Println("re-solves the IO-CPU balance point on every arrival and completion. With")
	fmt.Println("the admission cap of 2, u3 and u4 wait in the admission queue and their")
	fmt.Println("reports carry the queue wait. Each trace line carries the scheduler's")
	fmt.Println("reason — the balance-point solve (x_i/x_j → n_i/n_j at B_eff) behind")
	fmt.Println("every pairing, why solo fallbacks fire, and what triggered adjustments.")
}
