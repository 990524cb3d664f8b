// Package storage provides the secondary-storage substrate underneath the
// query engine: 8 KiB column pages, heap files, a pinning LRU buffer pool,
// and an external merge sort. The paper's operator is explicitly a
// *secondary-storage* operator (§V): answer tuples are sorted (spilling to
// disk when large) and then consumed in sequential scans; this package
// supplies those mechanics.
//
// Every heap file — a base table's and a sort's spilled run alike — is a
// sequence of self-describing PAX pages (page.go): per page, one minipage
// per column holding the column's cells as a typed vector. Writers fill a
// page from column cells (HeapFile.AppendBatch, a batch plus an optional
// row order); readers decode only the minipages they need straight onto a
// column batch's vectors (Scanner.NextBlock), a page at a time. The key
// sort (extsort.go) is fed a stream of column batches and owns its run:
// rows are copied into a budget-bounded column buffer that every run of a
// sort reuses, keys are encoded from the buffer's column vectors
// (sortkey.go), a spilled run is written from the buffer by its sorted
// permutation, and the merge keys and appends the rows of one decoded page
// per run; what a sort holds in memory is set by its tuple budget, never by
// the size of its input. The tuple forms (HeapFile.Append, Scanner.Next)
// serve the comparator sort and the benchmark's decode probe.
//
// A scan that selects decodes a page window's predicate columns first
// (Scanner.Window, Decode) and the columns it hands on at the qualifying
// rows alone (Scanner.Gather): late materialization. A scan of
// a file larger than a quarter of its buffer pool is a ring scan: it reads
// 32 pages (256 KiB) per system call into a scan-private extent drawn from
// the engine's free list, past the pool's frames and mutex, and checks
// each page's format as it reaches it (PostgreSQL's bulk-read strategy);
// the pool counts those pages as misses, and a small table's cached pages
// survive it. Smaller files, and single-page reads, go through the pool.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/table"
)

// PageSize is the size of every page, matching PostgreSQL's default 8 KiB.
const PageSize = 8192

// Page layout (a PAX page: Ailamaki et al., "Weaving relations for cache
// performance", VLDB 2001), all integers little-endian:
//
//	[0:4)    magic "PAXc"
//	[4:6)    format version
//	[6:8)    row count
//	[8:10)   column count
//	[10:12)  end of the last minipage
//	[12:16)  zero
//	then the column directory, 4 bytes per column: the kind of the
//	column's non-NULL cells (KindNull when every cell is NULL), a flags
//	byte (bit 0: the column has NULLs) and the uint16 offset of its
//	minipage; then the minipages, back to back in column order; and in the
//	last 4 bytes the magic again, so that a torn write is caught on read.
//
// A minipage opens with a NULL bitmap (bit i of byte i/8 set: row i is
// NULL) when the column has NULLs. Int, bool and float cells follow as
// rows 8-byte vectors, a NULL cell holding zero; string cells as rows+1
// uint16 offsets into the bytes that follow them, a NULL cell empty. A
// KindNull column's minipage is empty.
type Page struct {
	buf [PageSize]byte
}

// Bytes exposes the raw page for I/O.
func (p *Page) Bytes() []byte { return p.buf[:] }

const (
	pageVersion     = 1
	pageHeaderSize  = 16
	dirEntrySize    = 4
	pageTrailerSize = 4
	pageSpace       = PageSize - pageTrailerSize // where the minipages must end
	maxPageRows     = math.MaxUint16
	flagNulls       = 1
)

var pageMagic = [4]byte{'P', 'A', 'X', 'c'}

// ErrPageFormat is what reading a page that is not a column page of this
// format fails with: its magic, version or trailer does not match — a heap
// file of an older format, a zeroed page or a torn write. Match it with
// errors.Is; the error names the file and the page.
var ErrPageFormat = errors.New("storage: not a column page of this format")

// checkFormat checks a page's magic, version and trailer.
func checkFormat(buf []byte) error {
	if [4]byte(buf[0:4]) != pageMagic || [4]byte(buf[pageSpace:]) != pageMagic {
		return ErrPageFormat
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != pageVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrPageFormat, v, pageVersion)
	}
	return nil
}

// minipage is where one column's cells lie in a page.
type minipage struct {
	kind  table.Kind
	nulls int // offset of the NULL bitmap, -1 when the column has no NULL
	data  int // offset of the cells (of the string offsets, for strings)
	end   int // offset past the minipage
}

// pageLayout is a page's header and column directory, checked.
type pageLayout struct {
	rows int
	cols []minipage
}

// parse reads and checks the layout of buf, a whole page: the format, and
// that every minipage is where the directory says, as long as its kind and
// row count make it, and inside the page. Cells are not read; a string
// minipage's offsets are checked as its cells are decoded.
func (l *pageLayout) parse(buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("%w: %d bytes, want %d", ErrPageFormat, len(buf), PageSize)
	}
	if err := checkFormat(buf); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(buf[12:16]) != 0 {
		return fmt.Errorf("storage: corrupt page: header bytes [12:16) are % x, want zero", buf[12:16])
	}
	rows := int(binary.LittleEndian.Uint16(buf[6:8]))
	cols := int(binary.LittleEndian.Uint16(buf[8:10]))
	end := int(binary.LittleEndian.Uint16(buf[10:12]))
	pos := pageHeaderSize + dirEntrySize*cols
	if pos > end || end > pageSpace {
		return fmt.Errorf("storage: corrupt page: %d columns end at %d", cols, end)
	}
	l.rows = rows
	l.cols = slices.Grow(l.cols[:0], cols)[:cols]
	bitmap := (rows + 7) / 8
	for c := range l.cols {
		d := buf[pageHeaderSize+dirEntrySize*c:]
		m := minipage{kind: table.Kind(d[0]), nulls: -1, data: pos}
		flags, off := d[1], int(binary.LittleEndian.Uint16(d[2:4]))
		next := c + 1
		m.end = end
		if next < cols {
			m.end = int(binary.LittleEndian.Uint16(buf[pageHeaderSize+dirEntrySize*next+2:]))
		}
		if off != pos || m.end < pos || m.end > end || flags&^flagNulls != 0 ||
			m.kind > table.KindBool || (m.kind == table.KindNull && flags != 0) {
			return fmt.Errorf("storage: corrupt page: column %d directory entry % x", c, d[:dirEntrySize])
		}
		if flags&flagNulls != 0 {
			m.nulls, m.data = pos, pos+bitmap
		}
		size := m.data - pos
		switch m.kind {
		case table.KindInt, table.KindFloat, table.KindBool:
			size += 8 * rows
		case table.KindString:
			size += 2 * (rows + 1)
		}
		if m.kind == table.KindString && m.end-pos < size || m.kind != table.KindString && m.end-pos != size {
			return fmt.Errorf("storage: corrupt page: column %d minipage of %d bytes, want %d", c, m.end-pos, size)
		}
		l.cols[c] = m
		pos = m.end
	}
	return nil
}

// decode appends rows [lo, hi) of the page in buf, laid out as l, onto
// dst: the columns need marks (nil = all) cell by cell, the others not at
// all, while dst.N counts every appended row. A column stored with another
// kind than dst's, other than KindNull, fails.
func (l *pageLayout) decode(buf []byte, dst *table.ColBatch, lo, hi int, need []bool) error {
	if len(l.cols) != len(dst.Cols) {
		return fmt.Errorf("storage: page of %d columns, want %d", len(l.cols), len(dst.Cols))
	}
	for c := range dst.Cols {
		if need != nil && !need[c] {
			continue
		}
		if err := l.decodeCol(buf, dst, c, lo, hi, nil); err != nil {
			return err
		}
	}
	dst.N += hi - lo
	return nil
}

// gather appends the page's rows lo+rows[i] onto dst: the columns need
// marks (nil = all), the others not at all, while dst.N counts every
// appended row.
func (l *pageLayout) gather(buf []byte, dst *table.ColBatch, lo int, rows []int32, need []bool) error {
	if len(l.cols) != len(dst.Cols) {
		return fmt.Errorf("storage: page of %d columns, want %d", len(l.cols), len(dst.Cols))
	}
	for c := range dst.Cols {
		if need != nil && !need[c] {
			continue
		}
		if err := l.decodeCol(buf, dst, c, lo, lo+len(rows), rows); err != nil {
			return err
		}
	}
	dst.N += len(rows)
	return nil
}

// decodeCol appends the page's column c onto dst's: rows [lo, hi), or when
// rows is not nil the rows lo+rows[i]. A column stored with another kind
// than dst's, other than KindNull, fails.
func (l *pageLayout) decodeCol(buf []byte, dst *table.ColBatch, c, lo, hi int, rows []int32) error {
	m, v := &l.cols[c], &dst.Cols[c]
	if m.kind != table.KindNull && m.kind != v.Kind {
		name := fmt.Sprint(c)
		if dst.Schema != nil {
			name = dst.Schema.Cols[c].Name
		}
		return fmt.Errorf("storage: column %s is %s, stored field is %s", name, v.Kind, m.kind)
	}
	var err error
	if rows == nil {
		err = decodeCol(buf, m, l.rows, v, dst.N, lo, hi)
	} else {
		err = gatherCol(buf, m, l.rows, v, dst.N, lo, rows)
	}
	if err != nil {
		return fmt.Errorf("storage: column %d: %w", c, err)
	}
	return nil
}

// flat readies string column v to take decoded cells: its offsets start at
// 0 before its first cell.
func flat(v *table.ColVec) {
	if v.Kind == table.KindString && len(v.Offs) == 0 {
		v.Offs = append(v.Offs, 0)
	}
}

// decodeCol appends rows [lo, hi) of minipage m, of a page of rows rows,
// onto v as its rows n, n+1, ….
func decodeCol(buf []byte, m *minipage, rows int, v *table.ColVec, n, lo, hi int) error {
	flat(v)
	if m.kind == table.KindNull {
		for i := lo; i < hi; i++ {
			v.AppendValue(n+i-lo, table.Null())
		}
		return nil
	}
	if m.nulls >= 0 {
		bitmap := buf[m.nulls:m.data]
		for i := lo; i < hi; i++ {
			if bitmap[i>>3]&(1<<(i&7)) != 0 {
				v.SetNull(n + i - lo)
			}
		}
	}
	k := hi - lo
	switch m.kind {
	case table.KindInt, table.KindBool:
		src := buf[m.data+8*lo : m.data+8*hi]
		at := len(v.Ints)
		v.Ints = slices.Grow(v.Ints, k)[:at+k]
		for i, dst := 0, v.Ints[at:]; i < len(dst); i++ {
			dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case table.KindFloat:
		src := buf[m.data+8*lo : m.data+8*hi]
		at := len(v.Floats)
		v.Floats = slices.Grow(v.Floats, k)[:at+k]
		for i, dst := 0, v.Floats[at:]; i < len(dst); i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case table.KindString:
		offs := buf[m.data : m.data+2*(rows+1)]
		cells := buf[m.data+2*(rows+1) : m.end]
		first := int(binary.LittleEndian.Uint16(offs[2*lo:]))
		if first > len(cells) {
			return fmt.Errorf("corrupt page: string offset %d past %d bytes", first, len(cells))
		}
		base, prev := int32(len(v.Bytes))-int32(first), first
		v.Offs = slices.Grow(v.Offs, k)
		for i := lo + 1; i <= hi; i++ {
			o := int(binary.LittleEndian.Uint16(offs[2*i:]))
			if o < prev || o > len(cells) {
				return fmt.Errorf("corrupt page: string offset %d after %d of %d bytes", o, prev, len(cells))
			}
			v.Offs = append(v.Offs, base+int32(o))
			prev = o
		}
		v.Bytes = append(v.Bytes, cells[first:prev]...)
	}
	return nil
}

// gatherCol appends minipage m's rows lo+rows[i], of a page of rows rows,
// onto v as its rows n, n+1, ….
func gatherCol(buf []byte, m *minipage, rows int, v *table.ColVec, n, lo int, sel []int32) error {
	flat(v)
	if m.kind == table.KindNull {
		for i := range sel {
			v.AppendValue(n+i, table.Null())
		}
		return nil
	}
	if m.nulls >= 0 {
		bitmap := buf[m.nulls:m.data]
		for i, r := range sel {
			if row := lo + int(r); bitmap[row>>3]&(1<<(row&7)) != 0 {
				v.SetNull(n + i)
			}
		}
	}
	src := buf[m.data:m.end]
	switch m.kind {
	case table.KindInt, table.KindBool:
		v.Ints = slices.Grow(v.Ints, len(sel))
		for _, r := range sel {
			v.Ints = append(v.Ints, int64(binary.LittleEndian.Uint64(src[8*(lo+int(r)):])))
		}
	case table.KindFloat:
		v.Floats = slices.Grow(v.Floats, len(sel))
		for _, r := range sel {
			v.Floats = append(v.Floats, math.Float64frombits(binary.LittleEndian.Uint64(src[8*(lo+int(r)):])))
		}
	case table.KindString:
		offs, cells := src[:2*(rows+1)], src[2*(rows+1):]
		v.Offs = slices.Grow(v.Offs, len(sel))
		for _, r := range sel {
			row := lo + int(r)
			a := int(binary.LittleEndian.Uint16(offs[2*row:]))
			b := int(binary.LittleEndian.Uint16(offs[2*row+2:]))
			if a > b || b > len(cells) {
				return fmt.Errorf("corrupt page: string cell at %d..%d of %d bytes", a, b, len(cells))
			}
			v.Bytes = append(v.Bytes, cells[a:b]...)
			v.Offs = append(v.Offs, int32(len(v.Bytes)))
		}
	}
	return nil
}

// pageWriter fills pages: rows are gathered onto pend, the page being
// filled, in its column kinds, and encoded onto pg when the next row does
// not fit. The bytes the pending rows take are tracked as they are added,
// from the estimate
//
//	header + directory + trailer + 2·(string columns)
//	       + rows·width + string bytes + (columns with NULLs)·⌈rows/8⌉
//
// which the encoded page never exceeds (a column whose pending cells are all
// NULL is written as an empty KindNull minipage).
type pageWriter struct {
	pg       Page
	pend     table.ColBatch
	width    int    // bytes a row takes in fixed-width cells and string offsets
	strCols  int    // string columns
	strBytes int    // string bytes of the pending rows
	hasNulls []bool // per column: a pending cell is NULL
	nullCols int    // columns with hasNulls set
}

// begin starts an empty page whose columns take the kinds of src's
// columns or, when src is nil, the kinds of t's cells.
func (w *pageWriter) begin(src *table.ColBatch, t table.Tuple) {
	cols := len(t)
	if src != nil {
		cols = len(src.Cols)
	}
	b := &w.pend
	if len(b.Cols) != cols {
		b.Cols = make([]table.ColVec, cols)
		w.hasNulls = make([]bool, cols)
	}
	b.N, b.Sel = 0, nil
	w.width, w.strCols, w.strBytes, w.nullCols = 0, 0, 0, 0
	clear(w.hasNulls)
	for c := range b.Cols {
		v := &b.Cols[c]
		if src != nil {
			v.Reuse(src.Cols[c].Kind)
		} else {
			v.Reuse(t[c].Kind)
		}
		switch v.Kind {
		case table.KindInt, table.KindFloat, table.KindBool:
			w.width += 8
		case table.KindString:
			w.width += 2
			w.strCols++
		}
	}
}

// size is the estimate of the pending page at rows rows holding strBytes
// string bytes, with nullCols columns that have NULLs.
func (w *pageWriter) size(rows, strBytes, nullCols int) int {
	return pageHeaderSize + dirEntrySize*len(w.pend.Cols) + pageTrailerSize + 2*w.strCols +
		rows*w.width + strBytes + nullCols*((rows+7)/8)
}

// fitBatch returns how many of b's rows at positions [from, to) of rows
// (b's live rows when rows is nil) still fit the pending page, whose
// columns have b's kinds, and accounts for them.
func (w *pageWriter) fitBatch(b *table.ColBatch, rows []int32, from, to int) int {
	var strCols, nullCols [64]int // the columns a row's cost reads, when few
	sc, nc := strCols[:0], nullCols[:0]
	for c := range b.Cols {
		v := &b.Cols[c]
		if v.Kind == table.KindString {
			sc = append(sc, c)
		}
		if len(v.Nulls) > 0 && v.Kind != table.KindNull && !w.hasNulls[c] {
			nc = append(nc, c)
		}
	}
	n := w.pend.N
	for i := from; i < to; i++ {
		if n == maxPageRows {
			return i - from
		}
		row := int32(i)
		if rows != nil {
			row = rows[i]
		} else if b.Sel != nil {
			row = b.Sel[i]
		}
		add, nulls := 0, 0
		for _, c := range sc {
			v := &b.Cols[c]
			add += int(v.Offs[row+1] - v.Offs[row])
		}
		for _, c := range nc {
			if !w.hasNulls[c] && b.Cols[c].Null(int(row)) {
				nulls++
			}
		}
		if w.size(n+1, w.strBytes+add, w.nullCols+nulls) > PageSize {
			return i - from
		}
		if nulls > 0 {
			for _, c := range nc {
				if !w.hasNulls[c] && b.Cols[c].Null(int(row)) {
					w.hasNulls[c] = true
					w.nullCols++
				}
			}
		}
		w.strBytes += add
		n++
	}
	return to - from
}

// takes reports whether tuple t can join the pending page: its arity is
// the page's, each of its non-NULL cells has its column's kind, and it
// fits.
func (w *pageWriter) takes(t table.Tuple) bool {
	if len(t) != len(w.pend.Cols) || w.pend.N == maxPageRows {
		return false
	}
	add, nulls := 0, w.nullCols
	for c := range t {
		switch k := t[c].Kind; {
		case k == table.KindNull:
			if w.pend.Cols[c].Kind != table.KindNull && !w.hasNulls[c] {
				nulls++
			}
		case k != w.pend.Cols[c].Kind:
			return false
		case k == table.KindString:
			add += len(t[c].S)
		}
	}
	return w.size(w.pend.N+1, w.strBytes+add, nulls) <= PageSize
}

// appendTuple adds tuple t, which fits, to the pending page.
func (w *pageWriter) appendTuple(t table.Tuple) {
	for c := range t {
		switch t[c].Kind {
		case table.KindNull:
			if w.pend.Cols[c].Kind != table.KindNull && !w.hasNulls[c] {
				w.hasNulls[c] = true
				w.nullCols++
			}
		case table.KindString:
			w.strBytes += len(t[c].S)
		}
	}
	w.pend.AppendRow(t)
}

// encode lays the pending rows out on the page.
func (w *pageWriter) encode() {
	b, buf := &w.pend, w.pg.buf[:]
	rows := b.N
	copy(buf[0:4], pageMagic[:])
	binary.LittleEndian.PutUint16(buf[4:6], pageVersion)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(rows))
	binary.LittleEndian.PutUint16(buf[8:10], uint16(len(b.Cols)))
	clear(buf[12:16])
	pos := pageHeaderSize + dirEntrySize*len(b.Cols)
	for c := range b.Cols {
		v := &b.Cols[c]
		nulls := 0
		for _, word := range v.Nulls {
			nulls += bits.OnesCount64(word)
		}
		kind, flags := v.Kind, byte(0)
		if nulls == rows {
			kind = table.KindNull
		} else if nulls > 0 {
			flags = flagNulls
		}
		d := buf[pageHeaderSize+dirEntrySize*c:]
		d[0], d[1] = byte(kind), flags
		binary.LittleEndian.PutUint16(d[2:4], uint16(pos))
		if flags != 0 {
			bitmap := buf[pos : pos+(rows+7)/8]
			clear(bitmap)
			for i := range bitmap[:min(len(bitmap), 8*len(v.Nulls))] {
				bitmap[i] = byte(v.Nulls[i>>3] >> (8 * (i & 7)))
			}
			pos += (rows + 7) / 8
		}
		switch kind {
		case table.KindInt, table.KindBool:
			for i, x := range v.Ints[:rows] {
				binary.LittleEndian.PutUint64(buf[pos+8*i:], uint64(x))
			}
			pos += 8 * rows
		case table.KindFloat:
			for i, x := range v.Floats[:rows] {
				binary.LittleEndian.PutUint64(buf[pos+8*i:], math.Float64bits(x))
			}
			pos += 8 * rows
		case table.KindString:
			offs := buf[pos : pos+2*(rows+1)]
			pos += 2 * (rows + 1)
			binary.LittleEndian.PutUint16(offs, 0)
			for i := 1; i <= rows; i++ {
				binary.LittleEndian.PutUint16(offs[2*i:], uint16(v.Offs[i]))
			}
			pos += copy(buf[pos:], v.Bytes[:v.Offs[rows]])
		}
	}
	binary.LittleEndian.PutUint16(buf[10:12], uint16(pos))
	clear(buf[pos:pageSpace])
	copy(buf[pageSpace:], pageMagic[:])
}
