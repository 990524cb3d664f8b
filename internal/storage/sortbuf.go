package storage

import (
	"repro/internal/freelist"
	"repro/internal/table"
)

// sortBufs are the buffers a key sort grows: the run buffer's column
// vectors, the key arena, the key offsets and the two entry arrays run
// generation sorts, and the selection its sorted stream reads through. One
// holder owns them at a time — the sorter while it is fed, its
// SortedBatches once an unspilled sort has finished — and release is the
// one way they leave it.
//
// An ungoverned sorter draws them from the engine's free list
// (internal/freelist) at its first grow — the largest idle buffers, run
// vectors matched by column kind, and the best fit for a batch's selection
// — and gives them back once, when its sorted stream closes, when it
// finishes spilled or when it is discarded, so that what one sort grew to
// serves the next sort instead of every sort regrowing its buffers from
// minRunCap rows. The concurrent sorters of one partitioned pass draw from
// and give back to the same lists.
//
// A governed sort run is the free list's one bypass: it grows these
// buffers from nothing and lets them go to the collector. Its governor
// charge counts the buffers' capacity (footprint), not the rows they hold,
// so a drawn buffer — the largest another sort grew — would raise the
// charge and move the sort's early-spill point; growing from nothing keeps
// every charge and early spill what it is without the free list. Every
// other governed holder — a hash-join build charged per row, a merge that
// is never charged — draws and gives back like an ungoverned one.
type sortBufs struct {
	run  table.ColBatch // the run's rows
	keys []byte         // normalized keys of the run's rows, back to back
	offs []uint32       // key i is keys[offs[i]:offs[i+1]]
	ents []keyEntry
	aux  []keyEntry // radix sort's second buffer
	sel  []int32    // the sorted stream's selection over the run, a batch at a time

	pooled bool // drawn from the free list, and owed back to it
	lease  freelist.Lease
}

// entLists are the idle sort-entry arrays, ents and aux alike.
var entLists = freelist.Slices[keyEntry]()

// draw fills b, which holds no storage yet (its run batch reset to the
// sort's schema), with the largest idle buffers the free list has.
func (b *sortBufs) draw() {
	b.run.Draw(&b.lease, 0)
	b.keys, _ = freelist.Bytes.Largest(&b.lease)
	b.offs, _ = freelist.Uint32s.Largest(&b.lease)
	b.ents, _ = entLists.Largest(&b.lease)
	b.aux, _ = entLists.Largest(&b.lease)
	b.sel = freelist.Int32s.Draw(&b.lease, 4*table.BatchSize)
	b.pooled = true
}

// release gives the buffers back to the free list when they were drawn
// from it, and lets go of them either way; a second release finds nothing.
func (b *sortBufs) release() {
	if b.pooled {
		b.run.Recycle(&b.lease, 0)
		freelist.Bytes.Put(&b.lease, b.keys)
		freelist.Uint32s.Put(&b.lease, b.offs)
		entLists.Put(&b.lease, b.ents)
		entLists.Put(&b.lease, b.aux)
		freelist.Int32s.Put(&b.lease, b.sel)
	}
	*b = sortBufs{}
}
