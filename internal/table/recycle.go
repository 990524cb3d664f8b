package table

import (
	"sync"

	"repro/internal/freelist"
)

// vecLists are the idle column vectors on the engine's free list, one list
// per column kind.
var vecLists = func() (ls [KindBool + 1]*freelist.List[ColVec]) {
	for k := range ls {
		ls[k] = freelist.New(func(v ColVec) int64 { return v.MemSize() }, func(v *ColVec) { v.Reuse(v.Kind) },
			func(want int64) ColVec { return newVec(Kind(k), want/vecBytes(Kind(k))) })
	}
	return ls
}()

// vecBytes is what a vector drawn for a column of the kind holds per row:
// 8 bytes a number; a string's 4-byte offset and 12 bytes of its cell.
func vecBytes(k Kind) int64 {
	if k == KindString {
		return 16
	}
	return 8
}

// strBytes is the room for cell bytes a new string vector gets per row.
const strBytes = 12

// newVec is a new empty vector of the kind with room for rows rows — for a
// string column, rows offsets and strBytes bytes a row — so that it holds
// rows·vecBytes bytes from the start and goes back whole (Recycle) however
// short the strings it is filled with.
func newVec(k Kind, rows int64) ColVec {
	v := ColVec{Kind: k}
	switch k {
	case KindInt, KindBool:
		v.Ints = make([]int64, 0, rows)
	case KindFloat:
		v.Floats = make([]float64, 0, rows)
	case KindString:
		v.Offs = make([]int32, 0, rows+1)
		v.Bytes = make([]byte, 0, strBytes*rows)
	}
	return v
}

// Draw gives every column of b, an empty batch that holds no storage yet,
// a vector off the free list. When rows > 0 (a BatchSize chunk) that is the
// best fit for rows rows (freelist.List.Draw), reserved for rows rows, or
// a new vector of that size (newVec) when the list has none. When rows is
// 0 (a sort run, which does not know how far it will grow) it is
// the largest idle vector of the column's kind, and a column the list has
// none for grows from nothing.
func (b *ColBatch) Draw(ls *freelist.Lease, rows int) {
	for c := range b.Cols {
		v := &b.Cols[c]
		kind := v.Kind
		if rows > 0 {
			*v = vecLists[kind].Draw(ls, int64(rows)*vecBytes(kind))
		} else if got, ok := vecLists[kind].Largest(ls); ok {
			*v = got
		}
		v.Reuse(kind)
	}
	b.Reserve(rows)
}

// Recycle gives b's column vectors back to the free list and leaves b's
// columns empty: nothing of what b held may be read afterwards. rows is
// what b was drawn for (Draw): when it is > 0, a vector too small to be
// the best fit of such a draw — one holding less than a new vector of rows
// rows, as one a projection moved in from another batch may — is let
// go to the collector instead, so that no list fills with vectors no draw
// of that shape takes.
func (b *ColBatch) Recycle(ls *freelist.Lease, rows int) {
	for c := range b.Cols {
		v := &b.Cols[c]
		if v.MemSize() >= int64(rows)*vecBytes(v.Kind) {
			vecLists[v.Kind].Put(ls, *v)
		}
		*v = ColVec{Kind: v.Kind}
	}
	b.N, b.Sel = 0, nil
}

// A Scope owns the column chunks one query run draws for what its sort+scan
// passes output: the chunks live until the run has materialized its
// answer, however many times the run's later passes and joins read them,
// and then go back to the free list together, once (Release). NewChunk
// alone decides where a pass's output chunk comes from: a scope draws it
// off the free list, a nil Scope owns nothing and allocates it, which the
// collector takes. Either way the chunk is whole — its holder reserves
// BatchSize rows — so that what goes back is what the next run's chunks
// draw. The workers of a partitioned pass may draw from one Scope
// concurrently.
type Scope struct {
	mu     sync.Mutex
	lease  freelist.Lease
	chunks []*ColBatch
}

// NewChunk starts an empty chunk of the schema, owned by the scope and
// reserved for BatchSize rows: drawn, or allocated by a nil scope.
func (s *Scope) NewChunk(schema *Schema) *ColBatch {
	b := NewColBatch(schema)
	if s == nil {
		b.Reserve(BatchSize)
		return b
	}
	b.Draw(&s.lease, BatchSize)
	s.mu.Lock()
	s.chunks = append(s.chunks, b)
	s.mu.Unlock()
	return b
}

// Release gives back every chunk the scope owns; nothing of them may be
// read afterwards. A second Release, or a nil scope's, gives back nothing.
func (s *Scope) Release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	chunks := s.chunks
	s.chunks = nil
	s.mu.Unlock()
	for _, c := range chunks {
		c.Recycle(&s.lease, BatchSize)
	}
}
