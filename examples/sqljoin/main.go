// Sqljoin: run SQL against the engine — the optimizer picks access
// paths and join order, the parallelizer decomposes the plan into
// fragments, and the adaptive scheduler runs them.
package main

import (
	"fmt"
	"log"

	"xprs"
)

func main() {
	sys := xprs.New(xprs.DefaultConfig())
	fmt.Printf("executor batch size: %d tuples\n\n", xprs.DefaultBatchSize)

	orders := make([]struct {
		A int32
		B string
	}, 5000)
	for i := range orders {
		orders[i].A = int32(i)
		orders[i].B = fmt.Sprintf("order-%04d", i)
	}
	if _, err := sys.LoadRelation("orders", orders); err != nil {
		log.Fatal(err)
	}
	items := make([]struct {
		A int32
		B string
	}, 4000)
	for i := range items {
		items[i].A = int32(i) % 800
		items[i].B = fmt.Sprintf("item-%04d", i)
	}
	if _, err := sys.LoadRelation("items", items); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.BuildIndex("orders", false); err != nil {
		log.Fatal(err)
	}

	for _, stmt := range []string{
		"SELECT * FROM orders WHERE a BETWEEN 42 AND 45",
		"SELECT * FROM orders, items WHERE orders.a = items.a AND items.a < 100",
		"SELECT count(*), sum(a), max(a) FROM orders WHERE a < 1000",
		"SELECT items.a, count(*) FROM orders, items WHERE orders.a = items.a GROUP BY items.a",
	} {
		fmt.Println(">>", stmt)
		res, pl, err := sys.ExecSQL(stmt, xprs.InterAdj)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(xprs.ExplainPlan(pl))
		fmt.Printf("%d rows; first: ", res.Len())
		if res.Len() > 0 {
			fmt.Println(res.Tuples()[0].Vals)
		} else {
			fmt.Println("(none)")
		}
		fmt.Println()
	}
}
