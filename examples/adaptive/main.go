// Adaptive: watch the §2.4 dynamic parallelism-adjustment protocols in
// action. A long IO-bound scan starts alone at its maximum parallelism;
// a CPU-bound task arrives later, forcing the master to adjust the
// running scan down to the IO-CPU balance point via the maxpage
// protocol; when the newcomer finishes, the scan is adjusted back up.
package main

import (
	"fmt"
	"log"
	"time"

	"xprs"
)

func main() {
	sys := xprs.New(xprs.DefaultConfig())
	if _, err := sys.CreateScanRelation("stream", 65, 60000); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.CreateScanRelation("batch", 10, 60000); err != nil {
		log.Fatal(err)
	}

	long, err := sys.SelectTask(0, "stream", 0, 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	late, err := sys.SelectTask(1, "batch", 0, 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	// The CPU-bound task arrives 10 virtual seconds into the run.
	late.Arrival = 10 * time.Second

	rep, err := sys.Run([]xprs.TaskSpec{long, late}, xprs.InterAdj, xprs.SchedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schedule trace (task 0 = IO-bound scan, task 1 = late CPU-bound arrival):")
	for _, ev := range rep.Trace {
		fmt.Printf("  %v\n", ev)
	}
	fmt.Printf("\ntask 0 finished at %v, task 1 at %v; total %v\n",
		rep.Frag(0).Finish, rep.Frag(1).Finish, rep.Elapsed)
	fmt.Println()
	fmt.Println("What happened at t=10s: the master signalled all slaves of task 0,")
	fmt.Println("collected their current page positions, computed maxpage, and handed")
	fmt.Println("out new stride assignments (Figure 5's protocol); slaves finished")
	fmt.Println("their old residue classes up to maxpage and re-striped beyond it.")
	fmt.Println("When task 1 completed, the survivor was adjusted back up to maxp.")
}
