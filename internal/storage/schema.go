// Package storage implements the XPRS storage substrate: schemas, tuples,
// 8 KB slotted pages, heap relations striped block-by-block across the
// disk array, a buffer pool, and per-column statistics for the optimizer.
//
// The paper's experiments use relations of schema r(a int4, b text) where
// the text attribute's size is the knob that controls a sequential scan's
// IO rate (§3). Large experiment relations can therefore reach hundreds of
// megabytes of page images; to keep the reproduction laptop-friendly, a
// relation can be stored either physically (real slotted page images, the
// default) or synthetically (a description of each column — an int4
// function of the row number, a constant text pad — plus layout
// metadata). Both forms present identical page-granular read behaviour to
// the executor and charge identical disk traffic.
package storage

import "fmt"

// PageSize is the XPRS disk page size (paper §3: 8K bytes).
const PageSize = 8192

// Type identifies a column type. XPRS's experiment schema only needs the
// Postgres types int4 and text.
type Type uint8

const (
	// Int4 is a 32-bit signed integer.
	Int4 Type = iota
	// Text is a variable-length string.
	Text
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int4:
		return "int4"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column is one attribute of a schema.
type Column struct {
	Name string
	Typ  Type
}

// Schema describes the attributes of a relation or of an intermediate
// result flowing between plan operators.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from alternating name/type pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Cols) }

// Concat returns the schema of a join result: the columns of s followed by
// the columns of o. Duplicate names are qualified by position, matching
// how the executor addresses columns (by index, never by name).
func (s Schema) Concat(o Schema) Schema {
	out := Schema{Cols: make([]Column, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// Value is one typed datum. The zero Value is the int4 zero.
type Value struct {
	Typ Type
	Int int32
	Str string
}

// IntVal constructs an int4 value.
func IntVal(v int32) Value { return Value{Typ: Int4, Int: v} }

// TextVal constructs a text value.
func TextVal(v string) Value { return Value{Typ: Text, Str: v} }

// Size returns the datum's on-page size in bytes: 4 for int4, 4+len for
// text (length prefix plus bytes).
func (v Value) Size() int {
	if v.Typ == Int4 {
		return 4
	}
	return 4 + len(v.Str)
}

// Compare orders two values of the same type: -1, 0 or +1. Comparing
// values of different types panics; plans are type-checked before running.
func (v Value) Compare(o Value) int {
	if v.Typ != o.Typ {
		panic(fmt.Sprintf("storage: comparing %v with %v", v.Typ, o.Typ))
	}
	switch v.Typ {
	case Int4:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		default:
			return 0
		}
	default:
		switch {
		case v.Str < o.Str:
			return -1
		case v.Str > o.Str:
			return 1
		default:
			return 0
		}
	}
}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.Typ == Int4 {
		return fmt.Sprintf("%d", v.Int)
	}
	if len(v.Str) > 16 {
		return fmt.Sprintf("%q...(%dB)", v.Str[:16], len(v.Str))
	}
	return fmt.Sprintf("%q", v.Str)
}

// Tuple is a decoded row. Tuples flowing between operators share backing
// values; operators never mutate a tuple in place.
type Tuple struct {
	Vals []Value
}

// NewTuple builds a tuple from values.
func NewTuple(vals ...Value) Tuple { return Tuple{Vals: vals} }

// Size returns the tuple's on-page payload size.
func (t Tuple) Size() int {
	n := 0
	for _, v := range t.Vals {
		n += v.Size()
	}
	return n
}

// Concat returns the join of two tuples (values of t then of o).
func (t Tuple) Concat(o Tuple) Tuple {
	vals := make([]Value, 0, len(t.Vals)+len(o.Vals))
	vals = append(vals, t.Vals...)
	vals = append(vals, o.Vals...)
	return Tuple{Vals: vals}
}

// TID addresses a tuple inside a relation: page number and slot within
// the page. Indexes map keys to TIDs.
type TID struct {
	Page int64
	Slot int32
}
