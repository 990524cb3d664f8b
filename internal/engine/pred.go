package engine

import (
	"bytes"
	"encoding/binary"
	"unsafe"

	"repro/internal/table"
)

// This file is the selection kernels the two scans evaluate their
// predicates with (MonetDB/X100's selection vectors, Boncz et al., CIDR
// 2005): one tight loop per column layout against a constant of the
// column's kind — int and bool, float, shared string headers, flat string
// bytes — writing the qualifying physical rows into a selection vector.
// Every other kind pair goes through ColVec.CompareValue. Either way a row
// qualifies exactly when Op.Holds(table.Compare(cell, Val)), NULL cells
// included: a NULL cell is below every non-NULL constant, so x < c holds
// for a NULL x.

// ColPred is one column-vs-constant comparison, cell op Val under
// table.Compare semantics: the only predicate shape the planner emits for
// selections. A scan (ColChunkScan, ColHeapScan) evaluates its Preds on its
// own columns before it copies or decodes the rest of a row.
type ColPred struct {
	Col int
	Op  CmpOp
	Val table.Value
}

// mask has bit c+1 set when the operator holds for the Compare result c.
func (o CmpOp) mask() uint8 {
	var m uint8
	for c := -1; c <= 1; c++ {
		if o.Holds(c) {
			m |= 1 << (c + 1)
		}
	}
	return m
}

// selectRows writes into out the rows of v that satisfy p — rows lo..hi-1
// when in is nil, else the rows in lists, in order — and returns them. out
// needs room for every candidate row and may alias in: a row is written no
// later than it is read.
func (p *ColPred) selectRows(v *table.ColVec, lo, hi int, in, out []int32) []int32 {
	m, c := p.Op.mask(), p.Val
	switch {
	case c.Kind != v.Kind:
	case c.Kind == table.KindInt || c.Kind == table.KindBool:
		return selOrdered(v, v.Ints, c.I, m, lo, hi, in, out)
	case c.Kind == table.KindFloat:
		return selOrdered(v, v.Floats, c.F, m, lo, hi, in, out)
	case c.Kind == table.KindString && v.Mode == table.StrHeader:
		return selOrdered(v, v.Strs, c.S, m, lo, hi, in, out)
	case c.Kind == table.KindString && v.Mode == table.StrFlat && m&1 == m>>2&1: // = or <>
		return selFlatEq(v, c.S, m, lo, hi, in, out)
	case c.Kind == table.KindString && v.Mode == table.StrFlat:
		return selFlat(v, c.S, m, lo, hi, in, out)
	}
	k, n := 0, candidates(lo, hi, in)
	for j := 0; j < n; j++ {
		row := candidate(lo, in, j)
		out[k] = int32(row)
		k += int(m >> (v.CompareValue(row, c) + 1) & 1)
	}
	return out[:k]
}

// candidates is how many rows a kernel reads: hi-lo, or len(in).
func candidates(lo, hi int, in []int32) int {
	if in != nil {
		return len(in)
	}
	return hi - lo
}

// candidate is a kernel's j-th row: lo+j, or in[j].
func candidate(lo int, in []int32, j int) int {
	if in != nil {
		return int(in[j])
	}
	return lo + j
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cmp3 is Compare's order on two values of one kind: 0 when neither is
// below the other, as for a NaN.
func cmp3[T int64 | float64 | string](a, b T) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// selOrdered is selectRows over a typed vector xs of v: a row qualifies
// when bit cmp3(xs[row], c)+1 of m is set, a NULL row when bit 0 is.
func selOrdered[T int64 | float64 | string](v *table.ColVec, xs []T, c T, m uint8, lo, hi int, in, out []int32) []int32 {
	k, n, null := 0, candidates(lo, hi, in), m&1
	for j := 0; j < n; j++ {
		row := candidate(lo, in, j)
		h := m >> (cmp3(xs[row], c) + 1) & 1
		if len(v.Nulls) > 0 && v.Null(row) {
			h = null
		}
		out[k] = int32(row)
		k += int(h)
	}
	return out[:k]
}

// selFlat is selectRows over a flat string vector under an ordering: each
// cell's bytes compare with the constant's in place. A cell and a constant
// of at least 8 bytes are ordered by their first 8 bytes as one big-endian
// word, and by the rest only when those tie: a date against a date
// constant is decided by the word.
func selFlat(v *table.ColVec, c string, m uint8, lo, hi int, in, out []int32) []int32 {
	cb := unsafe.Slice(unsafe.StringData(c), len(c)) // read only
	long := len(cb) >= 8
	var word uint64
	if long {
		word = binary.BigEndian.Uint64(cb)
	}
	offs, b := v.Offs, v.Bytes
	k, n, null := 0, candidates(lo, hi, in), m&1
	for j := 0; j < n; j++ {
		row := candidate(lo, in, j)
		cell := b[offs[row]:offs[row+1]]
		var r int
		if long && len(cell) >= 8 {
			x := binary.BigEndian.Uint64(cell)
			if r = b2i(x > word) - b2i(x < word); r == 0 {
				r = bytes.Compare(cell[8:], cb[8:])
			}
		} else {
			r = bytes.Compare(cell, cb)
		}
		h := m >> (r + 1) & 1
		if len(v.Nulls) > 0 && v.Null(row) {
			h = null
		}
		out[k] = int32(row)
		k += int(h)
	}
	return out[:k]
}

// selFlatEq is selectRows over a flat string vector under = or <>, where
// only equality matters: bit 1 of m selects the cells equal to c, bit 0
// (and bit 2) the others and the NULLs.
func selFlatEq(v *table.ColVec, c string, m uint8, lo, hi int, in, out []int32) []int32 {
	offs, b := v.Offs, v.Bytes
	eq, ne := m>>1&1, m&1
	long := len(c) >= 8
	var word uint64
	if long {
		word = binary.BigEndian.Uint64(unsafe.Slice(unsafe.StringData(c), 8))
	}
	k, n := 0, candidates(lo, hi, in)
	for j := 0; j < n; j++ {
		row := candidate(lo, in, j)
		cell := b[offs[row]:offs[row+1]]
		h := ne
		if len(cell) == len(c) && (!long || binary.BigEndian.Uint64(cell) == word) && string(cell) == c &&
			(len(v.Nulls) == 0 || !v.Null(row)) {
			h = eq
		}
		out[k] = int32(row)
		k += int(h)
	}
	return out[:k]
}

// selectAll evaluates every predicate of preds over rows [lo, hi) of cols
// and returns the rows satisfying all of them, in order, in sel's storage
// (grown to hi-lo entries).
func selectAll(preds []ColPred, cols []table.ColVec, lo, hi int, sel *[]int32) []int32 {
	if cap(*sel) < hi-lo {
		*sel = make([]int32, hi-lo)
	}
	out := (*sel)[:hi-lo]
	var in []int32
	for i := range preds {
		in = preds[i].selectRows(&cols[preds[i].Col], lo, hi, in, out)
		if len(in) == 0 {
			break
		}
	}
	return in
}
