package btree

import (
	"fmt"

	"xprs/internal/storage"
)

// Index is a named B-tree over one int4 column of a relation, the
// structure behind XPRS index scans. The paper's experiments use an
// unclustered index on r.a; clustered indexes behave like sequential
// scans cost-wise (§3) and are supported for completeness.
type Index struct {
	Name      string
	Rel       *storage.Relation
	Col       int // column position in Rel's schema
	Clustered bool
	Tree      *Tree
}

// BuildIndex scans the relation and indexes the given int4 column.
// Building reads pages directly (no IO charge): XPRS builds indexes at
// load time, outside the measured experiments.
func BuildIndex(name string, rel *storage.Relation, col int, clustered bool) (*Index, error) {
	if col < 0 || col >= rel.Schema.Len() {
		return nil, fmt.Errorf("btree: column %d out of range for %q", col, rel.Name)
	}
	if rel.Schema.Cols[col].Typ != storage.Int4 {
		return nil, fmt.Errorf("btree: column %q is %v; only int4 is indexable",
			rel.Schema.Cols[col].Name, rel.Schema.Cols[col].Typ)
	}
	idx := &Index{Name: name, Rel: rel, Col: col, Clustered: clustered, Tree: New()}
	// Only generator-backed pages materialize into scratch; physical
	// pages come back as the relation's shared columnar cache.
	scratch := storage.NewColBatch(rel.Schema, 0)
	for p := int64(0); p < rel.NPages(); p++ {
		scratch.Reset()
		page, err := rel.PageColsInto(p, scratch)
		if err != nil {
			return nil, fmt.Errorf("btree: building %q: %w", name, err)
		}
		for s, k := range page.Vecs[col].Ints {
			idx.Tree.Insert(k, storage.TID{Page: p, Slot: int32(s)})
		}
	}
	return idx, nil
}

// KeyColumn returns the indexed column's name.
func (ix *Index) KeyColumn() string { return ix.Rel.Schema.Cols[ix.Col].Name }
