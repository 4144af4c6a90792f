package plan

// Which columns anybody reads is one plan-level fact, derived here once
// per Decompose and stamped where the executor compiles from: on every
// HashJoin (the output columns nothing above it reads) and on every
// hash-table fragment (the build columns no probe reads). A hash join is
// the only operator that copies values a column at a time, so it is the
// only one that can drop a column; everything else passes its input
// through whole and asks its children for all of it.

// colSet is the set of columns a consumer reads, indexed by column; the
// nil set reads every column.
type colSet []bool

// pruned lists the columns outside the set, ascending; nil when every
// column is read.
func (s colSet) pruned() []int {
	var p []int
	for c, read := range s {
		if !read {
			p = append(p, c)
		}
	}
	return p
}

// stampPrune walks the graph from the root fragment down. Fragments are
// listed inputs first, so going backwards the one probe of a hash table
// (Decompose gives every HashJoin a build fragment of its own) has said
// what it reads by the time the building fragment is reached.
func stampPrune(g *Graph) {
	builds := make(map[*Fragment]colSet)
	for i := len(g.Fragments) - 1; i >= 0; i-- {
		f := g.Fragments[i]
		var reads colSet // of f's output; only a probe narrows it
		if f.Out == HashOut {
			reads = builds[f]
			f.OutPrune = reads.pruned()
		}
		pushReads(f.Root, reads, builds)
	}
}

// pushReads tells the subtree at n that its consumer reads the given
// columns of its output, recording what each hash join asks of its build
// fragment in builds.
func pushReads(n Node, reads colSet, builds map[*Fragment]colSet) {
	switch x := n.(type) {
	case *Agg:
		child := make(colSet, x.Child.OutSchema().Len())
		if x.GroupCol >= 0 {
			child[x.GroupCol] = true
		}
		for _, f := range x.Funcs {
			if f.Kind != CountAll {
				child[f.Col] = true
			}
		}
		pushReads(x.Child, child, builds)
	case *HashJoin:
		x.OutPrune = reads.pruned()
		var left, right colSet
		if reads != nil {
			nl := x.Left.OutSchema().Len()
			left = append(colSet(nil), reads[:nl]...)
			left[x.LCol] = true
			right = append(colSet(nil), reads[nl:]...)
			right[x.RCol] = true
		}
		builds[x.Right.(*FragScan).Frag] = right
		pushReads(x.Left, left, builds)
	default:
		for _, c := range n.Children() {
			pushReads(c, nil, builds)
		}
	}
}
