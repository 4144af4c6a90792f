// Command xprsql is a tiny interactive SQL shell over the XPRS engine.
// It loads a demo database (orders/items/customers with mixed scan
// profiles), builds an index on orders.a, and executes SELECT statements
// through the bushy/parcost optimizer and the adaptive scheduler.
//
// Usage:
//
//	xprsql 'select * from orders where a between 10 and 20'
//	xprsql 'explain analyze select * from orders, items where orders.a = items.a'
//	echo 'select * from orders, items where orders.a = items.a' | xprsql
//	xprsql            # interactive prompt
//
// Prefixing a statement with "explain analyze" executes it and prints
// the per-fragment execution profile (virtual wall time, degree history,
// repartitions, tuple counts), the scheduler's decision trace, and the
// disk/buffer profile instead of the result rows.
//
// Prefixing a statement with "batches" executes it and prints batch
// diagnostics: the batch size, the per-column on-page widths of every
// base relation the plan reads, and the observed selection-vector
// density (the fraction of scanned rows that survive residual predicate
// chains).
//
// The -trace FILE flag writes a Chrome trace-event JSON (load it at
// ui.perfetto.dev) of everything the statements ran — query, fragment,
// slave, IO and scheduler-decision spans in virtual time — once they
// have finished.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"xprs"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

func main() {
	trace := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the executed statements to this file")
	flag.Parse()
	cfg := xprs.DefaultConfig()
	cfg.Observe = true // feeds -trace and the batches diagnostics; results unchanged
	sys := xprs.New(cfg)
	if err := loadDemo(sys); err != nil {
		fmt.Fprintln(os.Stderr, "xprsql:", err)
		os.Exit(1)
	}

	if args := flag.Args(); len(args) > 0 {
		for _, stmt := range args {
			if err := run(sys, stmt); err != nil {
				fmt.Fprintln(os.Stderr, "xprsql:", err)
				os.Exit(1)
			}
		}
	} else {
		prompt(sys)
	}
	if *trace != "" {
		if err := writeTrace(sys, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "xprsql:", err)
			os.Exit(1)
		}
	}
}

// prompt runs the interactive read-eval-print loop until EOF or quit.
func prompt(sys *xprs.System) {
	fmt.Println("xprsql — tables: orders(a,b) [indexed], items(a,b), customers(a,b)")
	fmt.Println(`try: select * from orders, items where orders.a = items.a and orders.a < 50`)
	fmt.Println(`     select items.a, count(*) from items group by items.a`)
	fmt.Println(`     explain analyze select * from customers, items where customers.a = items.a`)
	fmt.Println(`     batches select * from orders, items where orders.a = items.a and items.a < 500`)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("xprs> ")
	for sc.Scan() {
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" {
			fmt.Print("xprs> ")
			continue
		}
		if strings.EqualFold(stmt, "quit") || strings.EqualFold(stmt, "exit") {
			return
		}
		if err := run(sys, stmt); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		fmt.Print("xprs> ")
	}
}

// writeTrace exports the observer's spans as Chrome trace-event JSON.
func writeTrace(sys *xprs.System, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sys.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadDemo(sys *xprs.System) error {
	// orders: 4000 ids, moderate tuples; items: 3000 rows referencing
	// order ids; customers: large IO-bound tuples.
	if _, err := sys.CreateScanRelation("customers", 60, 3000); err != nil {
		return err
	}
	orders := make([]struct {
		A int32
		B string
	}, 4000)
	for i := range orders {
		orders[i].A = int32(i)
		orders[i].B = fmt.Sprintf("order-%04d", i)
	}
	if _, err := sys.LoadRelation("orders", orders); err != nil {
		return err
	}
	items := make([]struct {
		A int32
		B string
	}, 3000)
	for i := range items {
		items[i].A = int32(i) % 1000
		items[i].B = fmt.Sprintf("item-%04d", i)
	}
	if _, err := sys.LoadRelation("items", items); err != nil {
		return err
	}
	_, err := sys.BuildIndex("orders", false)
	return err
}

func run(sys *xprs.System, stmt string) error {
	if rest, ok := cutAnalyze(stmt); ok {
		_, pl, rep, err := sys.ExecSQLReport(rest, xprs.InterAdj)
		if err != nil {
			return err
		}
		fmt.Print(xprs.FormatAnalyze(pl, rep))
		return nil
	}
	if rest, ok := cutPrefix(stmt, "batches"); ok {
		return runBatches(sys, rest)
	}
	res, pl, err := sys.ExecSQL(stmt, xprs.InterAdj)
	if err != nil {
		return err
	}
	fmt.Printf("-- plan (seqcost %.2fs, parcost %.2fs, batch %d):\n%s",
		pl.SeqCost, pl.ParCost, xprs.DefaultBatchSize, xprs.ExplainPlan(pl))
	n := res.Len()
	for i, t := range res.Tuples() {
		if i >= 10 {
			fmt.Printf("... (%d more rows)\n", n-10)
			break
		}
		var cells []string
		for _, v := range t.Vals {
			cells = append(cells, v.String())
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d rows)\n", n)
	return nil
}

// runBatches executes the statement and prints batch diagnostics
// instead of result rows: the batch size, the per-column
// on-page widths of every base relation the plan scans, and the
// observed selection-vector density across residual predicate chains
// (from the exec.sel_rows_* counters, diffed around the run so earlier
// statements in the session do not pollute the ratio).
func runBatches(sys *xprs.System, stmt string) error {
	before := sys.Observer().Metrics.Snapshot()
	res, pl, err := sys.ExecSQL(stmt, xprs.InterAdj)
	if err != nil {
		return err
	}
	after := sys.Observer().Metrics.Snapshot()
	fmt.Printf("-- batch diagnostics (batch %d, %d result rows)\n", xprs.DefaultBatchSize, res.Len())
	seen := make(map[*storage.Relation]bool)
	plan.Walk(pl.Plan, func(n plan.Node) {
		var rel *storage.Relation
		switch x := n.(type) {
		case *plan.SeqScan:
			rel = x.Rel
		case *plan.IndexScan:
			rel = x.Rel
		}
		if rel == nil || seen[rel] {
			return
		}
		seen[rel] = true
		st := rel.Stats()
		fmt.Printf("--  %s: %d tuples, avg %.1f B/tuple, column widths:\n",
			rel.Name, st.NTuples, st.AvgTupleSize)
		for i, c := range rel.Schema.Cols {
			var w float64
			if i < len(st.Cols) {
				w = st.Cols[i].AvgWidth
			}
			fmt.Printf("--    %-8s %-5s %6.1f B\n", c.Name, c.Typ, w)
		}
	})
	in := after.Get("exec.sel_rows_in") - before.Get("exec.sel_rows_in")
	out := after.Get("exec.sel_rows_out") - before.Get("exec.sel_rows_out")
	if in > 0 {
		fmt.Printf("--  selection vectors: %d of %d rows pass residual predicates (density %.1f%%)\n",
			out, in, 100*float64(out)/float64(in))
	} else {
		fmt.Println("--  selection vectors: no residual predicate chains (filters pushed into index ranges)")
	}
	return nil
}

// cutAnalyze strips a case-insensitive "explain analyze" prefix,
// reporting whether the statement had one.
func cutAnalyze(stmt string) (string, bool) {
	fields := strings.Fields(stmt)
	if len(fields) < 3 ||
		!strings.EqualFold(fields[0], "explain") ||
		!strings.EqualFold(fields[1], "analyze") {
		return stmt, false
	}
	return strings.Join(fields[2:], " "), true
}

// cutPrefix strips a case-insensitive one-word prefix, reporting
// whether the statement had one.
func cutPrefix(stmt, word string) (string, bool) {
	fields := strings.Fields(stmt)
	if len(fields) < 2 || !strings.EqualFold(fields[0], word) {
		return stmt, false
	}
	return strings.Join(fields[1:], " "), true
}
