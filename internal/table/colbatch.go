package table

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"repro/internal/prob"
)

// This file is the columnar side of the data model: a ColBatch carries up to
// a batch's worth of tuples as per-column typed vectors — []int64, []float64,
// and strings as flat bytes with offsets, the layout a page stores them in —
// plus a selection vector and a null bitmap, in the MonetDB/X100
// vectorized-execution tradition. The engine's operators
// (engine.ColOperator) move ColBatches through reused storage: the contents
// of a batch (column slices included) are valid only until the next
// NextColBatch call on its producer, so consumers that retain column slices
// or cells across batches must copy them.

// ColVec is one column of a ColBatch: N cells of the column's declared
// kind in that kind's typed layout, plus an optional null bitmap.
//
//   - KindInt, KindBool: Ints (bools store 0/1, as Value.I does).
//   - KindFloat: Floats.
//   - KindString: Bytes and Offs. Cell i is Bytes[Offs[i]:Offs[i+1]], the
//     cells' raw bytes concatenated, so no cell is a string of its own.
//     Offs is empty while the column has no cell and holds N+1 entries,
//     the first 0, once it has one.
//
// Every non-NULL cell has the declared kind: rows are kind-checked where
// they enter the engine (Schema.Check, the heap scan), and AppendValue
// panics on a cell of another kind. NULL cells set their bit in Nulls and
// append a zero placeholder to the typed storage so indexes stay aligned;
// Nulls is empty while a column has no NULL cells.
type ColVec struct {
	Kind   Kind // declared column kind
	Ints   []int64
	Floats []float64
	Bytes  []byte
	Offs   []int32
	Nulls  []uint64
}

// BatchSize is the number of rows a column batch moves at a time: what a
// producer's NextColBatch fills at most, and the size of the fixed chunks
// that materialized column storage is kept in. Large enough to amortize
// per-batch overheads, small enough that a batch of typical tuples stays
// cache-resident.
const BatchSize = 1024

// ColBatch is a columnar batch of up to BatchSize tuples: one ColVec
// per schema column, N physical rows, and an optional selection vector. When
// Sel is non-nil, only the physical rows it lists (strictly increasing) are
// live — rows are qualified by writing Sel instead of moving any cell.
type ColBatch struct {
	Schema *Schema
	N      int
	Sel    []int32
	Cols   []ColVec
}

// NewColBatch returns an empty batch shaped for the schema.
func NewColBatch(s *Schema) *ColBatch {
	b := &ColBatch{}
	b.Reset(s)
	return b
}

// Reset clears the batch for refilling under the given schema, keeping the
// column storage for reuse.
func (b *ColBatch) Reset(s *Schema) {
	if len(b.Cols) != s.Len() {
		b.Cols = make([]ColVec, s.Len())
	}
	b.Schema = s
	b.N = 0
	b.Sel = nil
	for i := range b.Cols {
		b.Cols[i].Reuse(s.Cols[i].Kind)
	}
}

// Reuse clears the vector for a column of the given kind that need not be
// the one it held — a vector recycled from another sort. The typed storage
// keeps its capacity; it holds no pointers, so an idle vector pins nothing.
func (v *ColVec) Reuse(kind Kind) {
	v.Kind = kind
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Bytes = v.Bytes[:0]
	v.Offs = v.Offs[:0]
	v.Nulls = v.Nulls[:0]
}

// Rows returns the number of live rows (selection applied).
func (b *ColBatch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowID maps live row i to its physical row.
func (b *ColBatch) RowID(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// AppendRow transposes one tuple onto the batch columns.
func (b *ColBatch) AppendRow(t Tuple) {
	for i := range t {
		b.Cols[i].AppendValue(b.N, t[i])
	}
	b.N++
}

// AppendBatch copies live rows [lo, hi) of src (selection applied) onto b,
// column by column — the bulk form of AppendCell that a consumer keeping a
// borrowed batch's rows (the sorter's run buffer, the scans' hand-off buffer)
// copies through. Null-free numeric columns move as slices; every other
// column goes cell by cell.
func (b *ColBatch) AppendBatch(src *ColBatch, lo, hi int) {
	b.AppendBatchCols(src, lo, hi, nil)
}

// AppendBatchCols is AppendBatch copying only the columns need marks (nil =
// all): the other columns' vectors stay as they are, while N counts the
// appended rows — a scan whose consumers read a few columns (see the
// engine's pruneCols) copies just those.
func (b *ColBatch) AppendBatchCols(src *ColBatch, lo, hi int, need []bool) {
	var sel []int32
	if src.Sel != nil {
		sel = src.Sel[lo:hi]
	}
	for c := range b.Cols {
		if need == nil || need[c] {
			b.Cols[c].appendVec(b.N, &src.Cols[c], sel, lo, hi)
		}
	}
	b.N += hi - lo
}

// AppendRows copies src's physical rows rows, in that order, onto b: the
// columns need marks (nil = all), while N counts every appended row — a
// scan copies the rows its predicates qualified without writing a
// selection into src, which other scans may be reading.
func (b *ColBatch) AppendRows(src *ColBatch, rows []int32, need []bool) {
	if len(rows) == 0 {
		return
	}
	for c := range b.Cols {
		if need == nil || need[c] {
			b.Cols[c].appendVec(b.N, &src.Cols[c], rows, 0, 0)
		}
	}
	b.N += len(rows)
}

// appendVec appends src's cells at physical rows sel (or lo..hi-1 when sel is
// nil) as this column's rows n, n+1, ….
func (v *ColVec) appendVec(n int, src *ColVec, sel []int32, lo, hi int) {
	if len(src.Nulls) == 0 && v.Kind == src.Kind {
		switch v.Kind {
		case KindInt, KindBool:
			v.Ints = gather(v.Ints, src.Ints, sel, lo, hi)
			return
		case KindFloat:
			v.Floats = gather(v.Floats, src.Floats, sel, lo, hi)
			return
		case KindString:
			v.gatherStr(src, sel, lo, hi)
			return
		}
	}
	if sel == nil {
		for row := lo; row < hi; row++ {
			v.AppendCell(n, src, row)
			n++
		}
		return
	}
	for _, row := range sel {
		v.AppendCell(n, src, int(row))
		n++
	}
}

// gatherStr appends src's string cells at the rows sel lists, or the cells
// of rows [lo, hi) with their bytes in one copy.
func (v *ColVec) gatherStr(src *ColVec, sel []int32, lo, hi int) {
	if sel != nil {
		for _, row := range sel {
			appendStr(v, src.str(int(row)))
		}
		return
	}
	if lo == hi {
		return
	}
	if len(v.Offs) == 0 {
		v.Offs = append(v.Offs, 0)
	}
	shift := int32(len(v.Bytes)) - src.Offs[lo]
	v.Bytes = append(v.Bytes, src.Bytes[src.Offs[lo]:src.Offs[hi]]...)
	for _, o := range src.Offs[lo+1 : hi+1] {
		v.Offs = append(v.Offs, o+shift)
	}
}

// CopyOf makes v a copy of src's physical rows [0, n) in v's own storage:
// a projection naming one input column twice moves the column's storage to
// one output column and copies it into the other.
func (v *ColVec) CopyOf(src *ColVec, n int) {
	v.Reuse(src.Kind)
	v.appendVec(0, src, nil, 0, n)
}

// gather appends src[lo:hi], or src at the rows sel lists, to dst.
func gather[T any](dst, src []T, sel []int32, lo, hi int) []T {
	if sel == nil {
		return append(dst, src[lo:hi]...)
	}
	dst = slices.Grow(dst, len(sel))
	for _, row := range sel {
		dst = append(dst, src[row])
	}
	return dst
}

// Reserve grows every column's storage to hold rows physical rows, so that
// appending up to that many does not reallocate; a string column's bytes
// still grow on demand. Reserve(0) allocates nothing.
func (b *ColBatch) Reserve(rows int) {
	if rows <= 0 {
		return
	}
	for i := range b.Cols {
		v := &b.Cols[i]
		switch v.Kind {
		case KindInt, KindBool:
			v.Ints = slices.Grow(v.Ints, max(rows-len(v.Ints), 0))
		case KindFloat:
			v.Floats = slices.Grow(v.Floats, max(rows-len(v.Floats), 0))
		case KindString:
			v.Offs = slices.Grow(v.Offs, max(rows+1-len(v.Offs), 0))
		}
	}
}

// MemSize reports the bytes of column storage the batch holds (capacity, not
// length: what a governor should be charged for a batch that is kept),
// string bytes included.
func (b *ColBatch) MemSize() int64 {
	var n int64
	for i := range b.Cols {
		n += b.Cols[i].MemSize()
	}
	return n
}

// MemSize reports the bytes of storage one column holds, as ColBatch.MemSize
// counts them.
func (v *ColVec) MemSize() int64 {
	return int64(8*(cap(v.Ints)+cap(v.Floats)+cap(v.Nulls)) + cap(v.Bytes) + 4*cap(v.Offs))
}

// WriteRow materializes live row i into dst (len b.Schema.Len()). Each
// string cell allocates its string here.
func (b *ColBatch) WriteRow(i int, dst Tuple) {
	row := b.RowID(i)
	for c := range b.Cols {
		dst[c] = b.Cols[c].Value(row)
	}
}

// Null reports whether physical row i is NULL in this column. The bitmap
// only grows to the last word with a NULL set, so rows past its end are
// non-NULL by construction.
func (v *ColVec) Null(i int) bool {
	w := i >> 6
	if w >= len(v.Nulls) {
		return false
	}
	return v.Nulls[w]&(1<<uint(i&63)) != 0
}

// SetNull marks physical row i NULL, growing the bitmap on demand. It
// touches only the bitmap: the caller appends the row's placeholder cell
// (the heap scan, which decodes a page's bitmap and cells separately).
func (v *ColVec) SetNull(i int) {
	word := i >> 6
	for word >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Nulls[word] |= 1 << uint(i&63)
}

// AppendValue appends one cell value as physical row n (the batch's current
// N). Cells of the declared kind land in typed storage — a string's bytes
// are copied onto the column's — and NULLs set the bitmap. A cell of any other kind is a programming error, since
// rows are kind-checked where they enter: AppendValue panics on it.
func (v *ColVec) AppendValue(n int, val Value) {
	if val.Kind == KindNull {
		v.SetNull(n)
		v.appendZero()
		return
	}
	if val.Kind != v.Kind {
		panic(fmt.Sprintf("table: %s value %v appended to a column of kind %s", val.Kind, val, v.Kind))
	}
	switch v.Kind {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, val.I)
	case KindFloat:
		v.Floats = append(v.Floats, val.F)
	case KindString:
		appendStr(v, val.S)
	}
}

// appendZero appends a placeholder cell to the typed storage so physical row
// indexes stay aligned with N.
func (v *ColVec) appendZero() {
	switch v.Kind {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, 0)
	case KindFloat:
		v.Floats = append(v.Floats, 0)
	case KindString:
		appendStr(v, "")
	}
}

// AppendFloat appends a non-null cell of a float column without boxing a
// Value. The caller has checked the kind.
func (v *ColVec) AppendFloat(x float64) { v.Floats = append(v.Floats, x) }

// AppendStrBytes appends raw string bytes to a string column as its next
// cell. The caller has checked the kind.
func (v *ColVec) AppendStrBytes(s []byte) { appendStr(v, s) }

// appendStr appends one string cell's bytes and its end offset, starting
// the offsets at 0 when it is the column's first cell.
func appendStr[S string | []byte](v *ColVec, s S) {
	if len(v.Offs) == 0 {
		v.Offs = append(v.Offs, 0)
	}
	v.Bytes = append(v.Bytes, s...)
	v.Offs = append(v.Offs, int32(len(v.Bytes)))
}

// str is the bytes of string cell i.
func (v *ColVec) str(i int) []byte { return v.Bytes[v.Offs[i]:v.Offs[i+1]] }

// AppendCell appends src's cell at physical row `row` as this column's
// physical row n, staying typed without materializing the cell: a string
// cell's bytes are copied, with no per-cell string allocation. The
// vectorized join's output gather is built on it.
func (v *ColVec) AppendCell(n int, src *ColVec, row int) {
	if src.Null(row) {
		v.AppendValue(n, Null())
		return
	}
	if v.Kind == src.Kind {
		switch v.Kind {
		case KindInt, KindBool:
			v.Ints = append(v.Ints, src.Ints[row])
			return
		case KindFloat:
			v.Floats = append(v.Floats, src.Floats[row])
			return
		case KindString:
			appendStr(v, src.str(row))
			return
		}
	}
	v.AppendValue(n, src.Value(row))
}

// Value materializes the cell at physical row i.
func (v *ColVec) Value(i int) Value {
	if v.Null(i) {
		return Null()
	}
	switch v.Kind {
	case KindInt:
		return Value{Kind: KindInt, I: v.Ints[i]}
	case KindBool:
		return Value{Kind: KindBool, I: v.Ints[i]}
	case KindFloat:
		return Value{Kind: KindFloat, F: v.Floats[i]}
	case KindString:
		return Value{Kind: KindString, S: string(v.str(i))}
	default:
		return Null()
	}
}

// CompareValue orders cell i against a constant under Compare semantics
// without materializing the cell — string cells compare byte-wise with no
// allocation.
func (v *ColVec) CompareValue(i int, c Value) int {
	if v.Null(i) {
		if c.Kind == KindNull {
			return 0
		}
		return -1
	}
	if c.Kind == KindNull {
		return 1
	}
	switch v.Kind {
	case KindInt:
		switch c.Kind {
		case KindInt:
			return cmpInt(v.Ints[i], c.I)
		case KindFloat:
			return cmpFloat(float64(v.Ints[i]), c.F)
		}
		return cmpKind(KindInt, c.Kind)
	case KindFloat:
		switch c.Kind {
		case KindFloat:
			return cmpFloat(v.Floats[i], c.F)
		case KindInt:
			return cmpFloat(v.Floats[i], float64(c.I))
		}
		return cmpKind(KindFloat, c.Kind)
	case KindBool:
		if c.Kind == KindBool {
			return cmpInt(v.Ints[i], c.I)
		}
		return cmpKind(KindBool, c.Kind)
	case KindString:
		if c.Kind != KindString {
			return cmpKind(KindString, c.Kind)
		}
		return cmpBytesStr(v.str(i), c.S)
	default:
		return Compare(v.Value(i), c)
	}
}

// CompareCell orders cell i against o's cell j under Compare semantics
// without materializing either: NULL equals NULL, ints and floats compare
// by numeric value, and string cells compare byte-wise. The hash join's key
// equality is built on it.
func (v *ColVec) CompareCell(i int, o *ColVec, j int) int {
	if v.Kind == o.Kind && len(v.Nulls) == 0 && len(o.Nulls) == 0 {
		switch v.Kind {
		case KindInt, KindBool:
			return cmpInt(v.Ints[i], o.Ints[j])
		case KindFloat:
			return cmpFloat(v.Floats[i], o.Floats[j])
		}
	}
	if o.Kind != KindString || o.Null(j) {
		return v.CompareValue(i, o.Value(j)) // o's cell is a Value without allocating
	}
	if v.Kind != KindString || v.Null(i) {
		// Ordered by kind (or NULL) alone: o's bytes never matter.
		return Compare(v.Value(i), Value{Kind: KindString})
	}
	return bytes.Compare(v.str(i), o.str(j))
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpBytesStr orders raw cell bytes against a constant string without
// converting either side (a []byte(s) conversion would allocate per row).
func cmpBytesStr(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	default:
		return 0
	}
}

// cmpKind replicates Compare's cross-kind fallback for cells of the
// column's declared kind against a constant of a different, non-comparable
// kind (never both numeric, never NULL — those are handled before).
func cmpKind(a, b Kind) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// HashInto computes the HashOn hash of every live row over the key columns,
// column by column in tight per-kind loops, and returns dst[:Rows()]. The
// per-row byte sequence fed to FNV-1a is exactly HashOn's (columns in idx
// order), so the hashes are bit-identical to hashing the materialized rows,
// and a row hashes alike whatever batch or selection carries it — the property that lets the hash join hash its build chunks and its
// probe batches separately and meet in one chained index.
func (b *ColBatch) HashInto(idx []int, dst []uint64) []uint64 {
	n := b.Rows()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	init := prob.FNVInit()
	for i := range dst {
		dst[i] = init
	}
	for _, c := range idx {
		b.Cols[c].hashInto(b.Sel, b.N, dst)
	}
	return dst
}

// hashInto mixes this column's cells into the running per-row hashes. The
// null-free numeric layouts get direct loops; everything else goes through
// hashCell.
func (v *ColVec) hashInto(sel []int32, n int, dst []uint64) {
	if len(v.Nulls) == 0 {
		switch v.Kind {
		case KindInt:
			if sel == nil {
				for i, x := range v.Ints[:n] {
					h := prob.FNVByte(dst[i], 1)
					dst[i] = prob.FNVUint64(h, math.Float64bits(float64(x)))
				}
			} else {
				for i, row := range sel {
					h := prob.FNVByte(dst[i], 1)
					dst[i] = prob.FNVUint64(h, math.Float64bits(float64(v.Ints[row])))
				}
			}
			return
		case KindFloat:
			if sel == nil {
				for i, f := range v.Floats[:n] {
					if f == 0 {
						f = 0 // normalize -0, as HashOn does
					}
					h := prob.FNVByte(dst[i], 1)
					dst[i] = prob.FNVUint64(h, math.Float64bits(f))
				}
			} else {
				for i, row := range sel {
					f := v.Floats[row]
					if f == 0 {
						f = 0
					}
					h := prob.FNVByte(dst[i], 1)
					dst[i] = prob.FNVUint64(h, math.Float64bits(f))
				}
			}
			return
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			dst[i] = v.hashCell(dst[i], i)
		}
		return
	}
	for i, row := range sel {
		dst[i] = v.hashCell(dst[i], int(row))
	}
}

// hashCell mixes physical row i's cell into h, with HashOn's byte sequence.
func (v *ColVec) hashCell(h uint64, i int) uint64 {
	if v.Null(i) {
		return prob.FNVByte(h, 0)
	}
	switch v.Kind {
	case KindInt:
		h = prob.FNVByte(h, 1)
		return prob.FNVUint64(h, math.Float64bits(float64(v.Ints[i])))
	case KindFloat:
		f := v.Floats[i]
		if f == 0 {
			f = 0
		}
		h = prob.FNVByte(h, 1)
		return prob.FNVUint64(h, math.Float64bits(f))
	case KindBool:
		h = prob.FNVByte(h, 2)
		return prob.FNVByte(h, byte(v.Ints[i]&1))
	case KindString:
		b := v.str(i)
		h = prob.FNVByte(h, 3)
		h = prob.FNVUint64(h, uint64(len(b)))
		for _, c := range b {
			h = prob.FNVByte(h, c)
		}
		return h
	default: // a column declared NULL holds only NULL cells
		return prob.FNVByte(h, 0)
	}
}
