package storage

import (
	"runtime"
	"sync"

	"repro/internal/table"
)

// sortBufs are the buffers a key sort grows: the run buffer's column
// vectors, the key arena, the key offsets and the two entry arrays run
// generation sorts. One holder owns them at a time — the sorter while it
// is fed, its SortedBatches once an unspilled sort has finished — and
// release is the one way they leave it.
type sortBufs struct {
	run  table.ColBatch // the run's rows
	keys []byte         // normalized keys of the run's rows, back to back
	offs []uint32       // key i is keys[offs[i]:offs[i+1]]
	ents []keyEntry
	aux  []keyEntry // radix sort's second buffer

	slot   int   // the sortBufPool slot drawn from and given back to
	pooled bool  // drawn from sortBufPool, and owed back to it
	drawn  int64 // bytes of capacity the draw handed over
}

// size is the bytes of storage the buffers hold.
func (b *sortBufs) size() int64 {
	return b.run.MemSize() + int64(cap(b.keys)) + 4*int64(cap(b.offs)) + 16*int64(cap(b.ents)+cap(b.aux))
}

// release gives the buffers back to sortBufPool when they were drawn from
// it, and lets go of them either way; a second release finds nothing.
func (b *sortBufs) release() {
	if b.pooled {
		sortBufPool.put(b)
	}
	*b = sortBufs{slot: b.slot}
}

// sortBufRowBytes is the per-row footprint the idle cap allows a full run:
// the run buffer's cells, the row's key and its 36 bytes of entries and
// offset — a dozen 8-byte columns and a 100-byte key fit.
const sortBufRowBytes = 256

// sortBufIdleCap bounds the bytes sortBufPool holds idle: the buffers of
// one full DefaultSortBudget run per processor (16 MiB each, GOMAXPROCS
// read at start-up), which is how many sorts fill at once when the
// confidence operator's partitioned scan runs one per worker of a
// GOMAXPROCS-sized pool.
var sortBufIdleCap = int64(runtime.GOMAXPROCS(0)) * DefaultSortBudget * sortBufRowBytes

// sortBufPool is the process-wide free list of key sorters' buffers, so
// that what one sort grew to serves the next sort — of the same query or
// a later one — instead of every sort regrowing its buffers from minRunCap
// rows (Graefe, "Implementing sorting in database systems", ACM CSUR 2006:
// sort workspace is memory the engine manages). An ungoverned sorter draws
// at its first grow, and its buffers come back once, when its sorted
// stream closes, when it finishes spilled or when it is discarded. A
// governed sorter bypasses the pool: it grows from nothing, so every
// governor charge and early spill is what it would be without the pool.
//
// The free list keeps one list of each buffer per sorter slot
// (ExternalSorter.Slot). A sorter draws the largest idle buffers of its
// slot — run vectors matched by column kind — and those of any slot where
// its own has none, and gives them back to its slot. Concurrent sorters of
// one partitioned pass take a slot each, so each gets back what the
// partition's sorter of the previous pass grew to, not whatever the
// sorter that happened to draw first left. A buffer that would take the
// idle bytes past sortBufIdleCap is left to the collector.
var sortBufPool sortBufList

type sortBufList struct {
	mu    sync.Mutex
	slots []idleBufs
	idle  int64 // bytes held now
	stats SortBufferStats
}

// idleBufs is one slot's lists of idle buffers.
type idleBufs struct {
	vecs [table.KindBool + 1][]table.ColVec // by column kind
	keys [][]byte
	offs [][]uint32
	ents [][]keyEntry // ents and aux alike
}

// SortBufferStats are the key sorters' buffer recycling figures since the
// process started.
type SortBufferStats struct {
	ReusedBytes   int64 // buffer capacity sorters drew from the free list
	FreshBytes    int64 // capacity they gave back beyond what they drew: grown anew
	IdlePeakBytes int64 // most bytes the free list has held idle
}

// ReadSortBufferStats returns the recycling figures so far.
func ReadSortBufferStats() SortBufferStats {
	sortBufPool.mu.Lock()
	defer sortBufPool.mu.Unlock()
	return sortBufPool.stats
}

// draw fills b, which holds no storage yet (its run batch reset to the
// sort's schema), with the largest idle buffers of its slot, or of any slot
// when its own has none: a vector of each column's kind, a key arena,
// offsets and two entry arrays, as far as the free list has them.
func (p *sortBufList) draw(b *sortBufs) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range b.run.Cols {
		v := &b.run.Cols[c]
		if vec, ok := take(p, b.slot, func(s *idleBufs) *[]table.ColVec { return &s.vecs[v.Kind] }, (*table.ColVec).MemSize); ok {
			*v = vec
		}
	}
	b.keys, _ = take(p, b.slot, func(s *idleBufs) *[][]byte { return &s.keys }, capOf)
	b.offs, _ = take(p, b.slot, func(s *idleBufs) *[][]uint32 { return &s.offs }, capOf)
	b.ents, _ = take(p, b.slot, func(s *idleBufs) *[][]keyEntry { return &s.ents }, capOf)
	b.aux, _ = take(p, b.slot, func(s *idleBufs) *[][]keyEntry { return &s.ents }, capOf)
	b.pooled, b.drawn = true, b.size()
	p.idle -= b.drawn
	p.stats.ReusedBytes += b.drawn
}

// put takes b's buffers onto its slot's lists, as far as the idle cap
// admits them.
func (p *sortBufList) put(b *sortBufs) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.FreshBytes += max(b.size()-b.drawn, 0)
	for len(p.slots) <= b.slot {
		p.slots = append(p.slots, idleBufs{})
	}
	s := &p.slots[b.slot]
	admit := func(n int64) bool {
		if n == 0 || p.idle+n > sortBufIdleCap {
			return false
		}
		p.idle += n
		p.stats.IdlePeakBytes = max(p.stats.IdlePeakBytes, p.idle)
		return true
	}
	for c := range b.run.Cols {
		v := &b.run.Cols[c]
		if admit(v.MemSize()) {
			v.Reuse(v.Kind)
			s.vecs[v.Kind] = append(s.vecs[v.Kind], *v)
		}
	}
	if admit(int64(cap(b.keys))) {
		s.keys = append(s.keys, b.keys[:0])
	}
	if admit(4 * int64(cap(b.offs))) {
		s.offs = append(s.offs, b.offs[:0])
	}
	if admit(16 * int64(cap(b.ents))) {
		s.ents = append(s.ents, b.ents[:0])
	}
	if admit(16 * int64(cap(b.aux))) {
		s.ents = append(s.ents, b.aux[:0])
	}
}

// take takes the largest idle buffer off the list that list picks out of a
// slot: out of the given slot, or out of the slot holding the largest one
// when the given slot has none; false when no slot has one.
func take[T any](p *sortBufList, slot int, list func(*idleBufs) *[]T, size func(*T) int64) (T, bool) {
	if slot < len(p.slots) {
		if l := list(&p.slots[slot]); len(*l) > 0 {
			return popLargest(l, size), true
		}
	}
	var from *[]T
	best := int64(-1)
	for i := range p.slots {
		l := list(&p.slots[i])
		for j := range *l {
			if n := size(&(*l)[j]); n > best {
				from, best = l, n
			}
		}
	}
	if from == nil {
		var zero T
		return zero, false
	}
	return popLargest(from, size), true
}

// popLargest takes the element of the most storage off a non-empty list —
// the drawing sorter does not know yet how far it will grow.
func popLargest[T any](list *[]T, size func(*T) int64) (x T) {
	l := *list
	best := 0
	for i := range l {
		if size(&l[i]) > size(&l[best]) {
			best = i
		}
	}
	last := len(l) - 1
	x, l[best], l[last] = l[best], l[last], x
	*list = l[:last]
	return x
}

func capOf[E any](s *[]E) int64 { return int64(cap(*s)) }
