// Adaptive: watch the §2.4 dynamic parallelism-adjustment protocols in
// action. A long IO-bound scan starts alone at its maximum parallelism;
// a CPU-bound query arrives later in the same session (the second entry
// of a Replay schedule), forcing the master to adjust the
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
	// Two queries: the scan opens the session, and the CPU-bound task
	// arrives 10 virtual seconds into it.
	schedule := []xprs.Arrival{
		{Specs: []xprs.TaskSpec{long}},
		{At: 10 * time.Second, Specs: []xprs.TaskSpec{late}},
	}
	outs, err := sys.Replay(xprs.InterAdj, xprs.SchedOptions{}, xprs.Admission{}, schedule)
	if err != nil {
		log.Fatal(err)
	}
	// No admission limit, so nothing is shed and every Report is set.
	for i, title := range []string{"task 0, the IO-bound scan:", "task 1, the CPU-bound late arrival:"} {
		fmt.Println(title)
		for _, ev := range outs[i].Report.Trace {
			fmt.Printf("  %v\n", ev)
		}
	}
	fmt.Printf("\ntask 0 finished at %v, task 1 at %v; makespan %v\n",
		outs[0].Report.Frag(0).Finish, outs[1].Report.Frag(1).Finish, xprs.Summarize(outs).Makespan)
	fmt.Println()
	fmt.Println("What happened at t=10s: the master signalled all slaves of task 0,")
	fmt.Println("collected their current page positions, computed maxpage, and handed")
	fmt.Println("out new stride assignments (Figure 5's protocol); slaves finished")
	fmt.Println("their old residue classes up to maxpage and re-striped beyond it.")
	fmt.Println("When task 1 completed, the survivor was adjusted back up to maxp.")
}
