package table

import (
	"sync"

	"repro/internal/freelist"
)

// vecLists are the idle column vectors on the engine's free list, one list
// per column kind. An idle vector pins no strings (ColVec.Reuse).
var vecLists = func() (ls [KindBool + 1]*freelist.List[ColVec]) {
	for k := range ls {
		ls[k] = freelist.New(func(v ColVec) int64 { return v.MemSize() }, func(v *ColVec) { v.Reuse(v.Kind) }, nil)
	}
	return ls
}()

// vecBytes is what a column of the kind stores per row in its typed
// layout: 8 bytes a number, a 16-byte header a string.
func vecBytes(k Kind) int64 {
	if k == KindString {
		return 16
	}
	return 8
}

// Draw gives every column of b, an empty batch that holds no storage yet,
// a vector off the free list. When rows > 0 (a BatchSize chunk) that is the
// best fit for rows rows (freelist.List.Draw), and the batch is reserved
// for rows rows, so a column the list had no vector for gets a new one of
// that size — a string column once its layout is settled (Reserve). When
// rows is 0 (a sort run, which does not know how far it will grow) it is
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
// the best fit of such a draw — one that never grew to rows rows in its
// layout — is let go to the collector instead, so that no list fills with
// vectors no draw of that shape takes.
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

// NewChunk starts an empty chunk of the schema, owned by the scope: drawn
// for BatchSize rows, or allocated by a nil scope. Settle its string
// columns' layout (ColVec.SettleLike) and Reserve(BatchSize) before
// filling it.
func (s *Scope) NewChunk(schema *Schema) *ColBatch {
	b := NewColBatch(schema)
	if s == nil {
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
