package table

import "repro/internal/freelist"

// vecLists are the idle column vectors on the engine's free list, one list
// per column kind. An idle vector pins no strings (ColVec.Reuse).
var vecLists = func() (ls [KindBool + 1]*freelist.List[ColVec]) {
	for k := range ls {
		ls[k] = freelist.New(func(v ColVec) int64 { return v.MemSize() }, func(v *ColVec) { v.Reuse(v.Kind) })
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
// a vector off the free list: the best fit for rows rows when rows > 0 (a
// BatchSize chunk), else the largest idle vector of the column's kind (a
// sort run, which does not know how far it will grow). A column the list
// has no vector for keeps growing from nothing.
func (b *ColBatch) Draw(ls *freelist.Lease, rows int) {
	for c := range b.Cols {
		v := &b.Cols[c]
		var got ColVec
		var ok bool
		if rows > 0 {
			got, ok = vecLists[v.Kind].Fit(ls, int64(rows)*vecBytes(v.Kind))
		} else {
			got, ok = vecLists[v.Kind].Largest(ls)
		}
		if ok {
			got.Reuse(v.Kind)
			*v = got
		}
	}
}

// Recycle gives b's column vectors back to the free list and leaves b's
// columns empty: nothing of what b held may be read afterwards.
func (b *ColBatch) Recycle(ls *freelist.Lease) {
	for c := range b.Cols {
		v := &b.Cols[c]
		vecLists[v.Kind].Put(ls, *v)
		*v = ColVec{Kind: v.Kind}
	}
	b.N, b.Sel = 0, nil
}
