package storage

import (
	"repro/internal/freelist"
	"repro/internal/table"
)

// sortBufs are the buffers a key sort grows: the run buffer's column
// vectors, the key arena, the key offsets and the two entry arrays run
// generation sorts, and the selection its sorted stream reads through. One holder owns them at a time — the sorter while it
// is fed, its SortedBatches once an unspilled sort has finished — and
// release is the one way they leave it.
//
// An ungoverned sorter draws them from the engine's free list
// (internal/freelist) at its first grow — the largest idle buffers of its
// slot, run vectors matched by column kind, and those of any slot where
// its own has none — and gives them back to its slot once, when its sorted
// stream closes, when it finishes spilled or when it is discarded, so that
// what one sort grew to serves the next sort instead of every sort
// regrowing its buffers from minRunCap rows. Concurrent sorters of one
// partitioned pass take a slot each (ExternalSorter.Slot), so each gets
// back what the partition's sorter of the previous pass grew to. A
// governed sorter bypasses the free list: it grows from nothing, so every
// governor charge and early spill is what it would be without it.
type sortBufs struct {
	run  table.ColBatch // the run's rows
	keys []byte         // normalized keys of the run's rows, back to back
	offs []uint32       // key i is keys[offs[i]:offs[i+1]]
	ents []keyEntry
	aux  []keyEntry // radix sort's second buffer
	sel  []int32    // the sorted stream's selection over the run, a batch at a time

	slot   int  // the free-list slot drawn from and given back to
	pooled bool // drawn from the free list, and owed back to it
	lease  freelist.Lease
}

// entLists are the idle sort-entry arrays, ents and aux alike.
var entLists = freelist.Slices[keyEntry]()

// draw fills b, which holds no storage yet (its run batch reset to the
// sort's schema), with the largest idle buffers the free list has.
func (b *sortBufs) draw() {
	b.run.Draw(&b.lease, b.slot, 0)
	b.keys, _ = freelist.Bytes.Largest(&b.lease, b.slot)
	b.offs, _ = freelist.Uint32s.Largest(&b.lease, b.slot)
	b.ents, _ = entLists.Largest(&b.lease, b.slot)
	b.aux, _ = entLists.Largest(&b.lease, b.slot)
	b.sel, _ = freelist.Int32s.Fit(&b.lease, b.slot, 4*table.BatchSize)
	b.pooled = true
}

// release gives the buffers back to the free list when they were drawn
// from it, and lets go of them either way; a second release finds nothing.
func (b *sortBufs) release() {
	if b.pooled {
		b.run.Recycle(&b.lease, b.slot)
		freelist.Bytes.Put(&b.lease, b.slot, b.keys)
		freelist.Uint32s.Put(&b.lease, b.slot, b.offs)
		entLists.Put(&b.lease, b.slot, b.ents)
		entLists.Put(&b.lease, b.slot, b.aux)
		freelist.Int32s.Put(&b.lease, b.slot, b.sel)
	}
	*b = sortBufs{slot: b.slot}
}
