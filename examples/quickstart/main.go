// Quickstart: create a relation, run a selection query in parallel, and
// read the results — the minimal tour of the public API.
package main

import (
	"fmt"
	"log"

	"xprs"
)

func main() {
	// An XPRS system: 8 processors, the paper's 4-disk striped array,
	// deterministic virtual time.
	sys := xprs.New(xprs.DefaultConfig())

	// A relation whose sequential scan runs at 40 io/s (the §3 tuple-size
	// methodology picks the text-column width that hits the target rate).
	rel, err := sys.CreateScanRelation("orders", 40, 20000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s: %d tuples on %d striped pages (avg tuple %.0f B), executor batch %d\n",
		rel.Name, rel.NTuples(), rel.NPages(), rel.Stats().AvgTupleSize, xprs.DefaultBatchSize)

	// A one-variable selection task: select * from orders where 1000 <= a <= 1999.
	task, err := sys.SelectTask(0, "orders", 1000, 1999)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task: T=%.2fs sequential, %0.f IOs, C=%.1f io/s (IO-bound above %.0f)\n",
		task.Task.T, task.Task.D, task.Task.D/task.Task.T,
		sys.Params().B/float64(sys.Params().NProcs))

	// Run it under the paper's scheduler.
	rep, err := sys.Run([]xprs.TaskSpec{task}, xprs.InterAdj, xprs.SchedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elapsed (virtual) %v, %d rows selected, %d disk reads\n",
		rep.Elapsed, rep.Results[0].Len(), rep.Disk.TotalReads())
	for i, t := range rep.Results[0].Tuples() {
		if i >= 3 {
			fmt.Printf("  ... and %d more\n", rep.Results[0].Len()-3)
			break
		}
		fmt.Printf("  row %d: a=%v\n", i, t.Vals[0])
	}
	for _, ev := range rep.Trace {
		fmt.Println("  trace:", ev)
	}
}
