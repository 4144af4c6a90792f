package sqlmini

import (
	"strings"
	"testing"

	"xprs/internal/btree"
	"xprs/internal/expr"
	"xprs/internal/storage"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT * FROM r1 WHERE a >= 10 AND b = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	if texts[0] != "SELECT" || texts[1] != "*" || texts[5] != "a" || texts[6] != ">=" {
		t.Fatalf("tokens = %v", texts)
	}
	// The escaped string decodes.
	found := false
	for i, k := range kinds {
		if k == tokString && texts[i] == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatalf("string literal not decoded: %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("select ?"); err == nil {
		t.Fatal("bad character accepted")
	}
	if _, err := lex("select 'oops"); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestLexNegativeInt(t *testing.T) {
	toks, err := lex("a > -15")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].kind != tokInt || toks[2].text != "-15" {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestParseSelection(t *testing.T) {
	q, err := Parse("SELECT * FROM r1 WHERE a BETWEEN 10 AND 20;")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0] != "r1" {
		t.Fatalf("tables = %v", q.Tables)
	}
	if len(q.Preds) != 1 || q.Preds[0].Op != "between" || q.Preds[0].Lo != 10 || q.Preds[0].Hi != 20 {
		t.Fatalf("preds = %+v", q.Preds)
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse("select * from r1, r2, r3 where r1.a = r2.a and r2.a = r3.a and r1.a < 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 3 {
		t.Fatalf("tables = %v", q.Tables)
	}
	joins := 0
	for _, p := range q.Preds {
		if p.IsJoin {
			joins++
		}
	}
	if joins != 2 {
		t.Fatalf("join preds = %d", joins)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE r1",
		"SELECT a FROM r1",
		"SELECT * r1",
		"SELECT * FROM",
		"SELECT * FROM r1 WHERE",
		"SELECT * FROM r1 WHERE a ==",
		"SELECT * FROM r1 WHERE a BETWEEN x AND 2",
		"SELECT * FROM r1 WHERE a BETWEEN 1, 2",
		"SELECT * FROM r1 WHERE a < r2.b", // non-equality join
		"SELECT * FROM r1 extra",
		"SELECT * FROM r1, r1", // self join
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

// fixture catalog

type cat struct {
	rels    map[string]*storage.Relation
	indexes map[*storage.Relation]map[int]*btree.Index
}

func (c *cat) Relation(name string) (*storage.Relation, bool) {
	r, ok := c.rels[strings.ToLower(name)]
	return r, ok
}

func (c *cat) IndexOn(rel *storage.Relation, col int) *btree.Index {
	return c.indexes[rel][col]
}

func buildCat(t *testing.T) *cat {
	t.Helper()
	c := &cat{rels: map[string]*storage.Relation{}, indexes: map[*storage.Relation]map[int]*btree.Index{}}
	for i, name := range []string{"r1", "r2"} {
		b := storage.NewBuilder(int32(i+1), name, storage.NewSchema(
			storage.Column{Name: "a", Typ: storage.Int4},
			storage.Column{Name: "b", Typ: storage.Text},
		))
		for j := 0; j < 200; j++ {
			_ = b.Append(storage.NewTuple(storage.IntVal(int32(j)), storage.TextVal("x")))
		}
		r := b.Finalize()
		c.rels[name] = r
	}
	ix, err := btree.BuildIndex("r1_a", c.rels["r1"], 0, false)
	if err != nil {
		t.Fatal(err)
	}
	c.indexes[c.rels["r1"]] = map[int]*btree.Index{0: ix}
	return c
}

func TestCompileSelection(t *testing.T) {
	c := buildCat(t)
	q, err := Parse("SELECT * FROM r1 WHERE a BETWEEN 5 AND 15 AND b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	oq, _, err := CompileWithBinder(q, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(oq.Rels) != 1 || oq.Rels[0].Filter == nil {
		t.Fatalf("compiled = %+v", oq)
	}
	// The indexed range is attached.
	if oq.Rels[0].Index == nil || oq.Rels[0].KeyLo != 5 || oq.Rels[0].KeyHi != 15 {
		t.Fatalf("index range = %+v", oq.Rels[0])
	}
	// The filter keeps both conjuncts.
	passed, err := expr.Qualifies(oq.Rels[0].Filter, storage.NewTuple(storage.IntVal(10), storage.TextVal("x")))
	if err != nil || !passed {
		t.Fatal("conjunct eval")
	}
	passed, _ = expr.Qualifies(oq.Rels[0].Filter, storage.NewTuple(storage.IntVal(10), storage.TextVal("y")))
	if passed {
		t.Fatal("text conjunct ignored")
	}
}

func TestCompileRangeIntersection(t *testing.T) {
	c := buildCat(t)
	q, err := Parse("SELECT * FROM r1 WHERE a >= 5 AND a < 15")
	if err != nil {
		t.Fatal(err)
	}
	oq, _, err := CompileWithBinder(q, c)
	if err != nil {
		t.Fatal(err)
	}
	if oq.Rels[0].KeyLo != 5 || oq.Rels[0].KeyHi != 14 {
		t.Fatalf("intersected range = [%d,%d]", oq.Rels[0].KeyLo, oq.Rels[0].KeyHi)
	}
}

func TestCompileJoin(t *testing.T) {
	c := buildCat(t)
	q, err := Parse("SELECT * FROM r1, r2 WHERE r1.a = r2.a AND r2.a < 50")
	if err != nil {
		t.Fatal(err)
	}
	oq, _, err := CompileWithBinder(q, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(oq.Joins) != 1 || oq.Joins[0].LRel != 0 || oq.Joins[0].RRel != 1 {
		t.Fatalf("joins = %+v", oq.Joins)
	}
	if oq.Rels[1].Filter == nil {
		t.Fatal("r2 filter lost")
	}
	if oq.Rels[0].Index != nil {
		t.Fatal("unconstrained r1 got an index range")
	}
}

func TestCompileUnqualifiedAmbiguous(t *testing.T) {
	c := buildCat(t)
	q, _ := Parse("SELECT * FROM r1, r2 WHERE a = 1")
	if _, _, err := CompileWithBinder(q, c); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	q, _ = Parse("SELECT * FROM r1 WHERE a = 1")
	if _, _, err := CompileWithBinder(q, c); err != nil {
		t.Fatal("unambiguous single-table column rejected:", err)
	}
}

func TestCompileErrors(t *testing.T) {
	c := buildCat(t)
	cases := []string{
		"SELECT * FROM missing",
		"SELECT * FROM r1 WHERE zz = 1",
		"SELECT * FROM r1 WHERE r9.a = 1",
		"SELECT * FROM r1 WHERE r1.zz = 1",
		"SELECT * FROM r1 WHERE b BETWEEN 1 AND 2", // text between
		"SELECT * FROM r1 WHERE a = 'text'",        // type mismatch
		"SELECT * FROM r1 WHERE b = 5",             // type mismatch
		"SELECT * FROM r1, r2 WHERE r1.a = r1.a",   // same-table join
	}
	for _, sql := range cases {
		q, err := Parse(sql)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, _, err := CompileWithBinder(q, c); err == nil {
			t.Errorf("compiled %q", sql)
		}
	}
}

func TestColRefString(t *testing.T) {
	if (ColRef{Column: "a"}).String() != "a" || (ColRef{Table: "r", Column: "a"}).String() != "r.a" {
		t.Fatal("colref strings")
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("SELECT a, count(*), sum(a), min(a), max(a) FROM r1 GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 4 || q.GroupBy == nil || q.GroupBy.Column != "a" {
		t.Fatalf("parsed = %+v", q)
	}
	if len(q.PlainCols) != 1 || q.PlainCols[0].Column != "a" {
		t.Fatalf("plain cols = %+v", q.PlainCols)
	}
	// Global aggregate without grouping.
	q2, err := Parse("select count(*) from r1")
	if err != nil {
		t.Fatal(err)
	}
	if q2.GroupBy != nil || len(q2.Aggs) != 1 || q2.Aggs[0].Kind != "count" {
		t.Fatalf("parsed = %+v", q2)
	}
	bad := []string{
		"SELECT count(*) FROM r1 GROUP",         // truncated GROUP BY
		"SELECT count(a) FROM r1",               // count takes *
		"SELECT sum(*) FROM r1",                 // sum takes a column
		"SELECT b, count(*) FROM r1 GROUP BY a", // plain col != group col
		"SELECT * FROM r1 GROUP BY a",           // star with group by
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

func TestResolveAggregates(t *testing.T) {
	c := buildCat(t)
	q, err := Parse("SELECT r2.a, count(*), sum(r2.a) FROM r1, r2 WHERE r1.a = r2.a GROUP BY r2.a")
	if err != nil {
		t.Fatal(err)
	}
	_, binder, err := CompileWithBinder(q, c)
	if err != nil {
		t.Fatal(err)
	}
	// Plan order r2 (idx 1) before r1 (idx 0): r2.a sits at offset 0.
	groupCol, funcs, err := ResolveAggregates(q, binder, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if groupCol != 0 {
		t.Fatalf("group col = %d", groupCol)
	}
	if len(funcs) != 2 || funcs[1].Col != 0 {
		t.Fatalf("funcs = %+v", funcs)
	}
	// Reverse order shifts the offsets by r1's width.
	groupCol, funcs, err = ResolveAggregates(q, binder, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if groupCol != 2 || funcs[1].Col != 2 {
		t.Fatalf("shifted = %d, %+v", groupCol, funcs)
	}
	// Text grouping is rejected.
	q2, _ := Parse("SELECT count(*) FROM r1 GROUP BY b")
	_, b2, err := CompileWithBinder(q2, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResolveAggregates(q2, b2, []int{0}); err == nil {
		t.Fatal("text group col accepted")
	}
}
