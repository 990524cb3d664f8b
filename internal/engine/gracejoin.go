package engine

import (
	"repro/internal/fault"
	"repro/internal/freelist"
	"repro/internal/storage"
	"repro/internal/table"
)

// The hash join's build loop and its memory-governed cold path. A governed
// join charges its build side against a fault.Governor as it grows; when a
// reservation is denied the join abandons the in-memory hash table and
// degrades to a grace join: both inputs are sorted on their join keys by
// governed external sorts (which spill under the same pressure) and merged
// into column batches (graceMerge, join.go). The output multiset is
// identical; only the memory profile changes, bounded by the sort budget
// instead of the build-side cardinality.

// joinRowMemEst is what a governed build charges per row of a width-w
// build side. It is a fixed estimate, not the chunks' bytes, so a given
// budget degrades a join at the same row whatever layout its cells take.
func joinRowMemEst(w int) int64 { return 64 + 48*int64(w) }

// hashBuild is a hash join's build side held as columns: chunks of exactly
// BatchSize rows (the last one partial) with their rows' key hashes, and a
// chained index over them. Build row r is row r%BatchSize of chunk
// r/BatchSize; heads maps a hash's slot to its first row + 1 (0 = none) and
// next[r] chains to the next row + 1 sharing r's slot. Rows were chained in
// descending order, so every chain ascends: one key's rows come out in
// build-input order.
//
// A build draws its chunk vectors, hash slices and index from the engine's
// free list (internal/freelist), each the best fit for its size, governed
// or not — a governed build is charged joinRowMemEst a row whatever it
// draws — and release gives them back once the join is done with them. A
// build that degrades to grace hands its chunks to the grace sort, which
// gives each back once it has copied it.
type hashBuild struct {
	chunks []*table.ColBatch
	hashes [][]uint64
	heads  []int32
	next   []int32
	mask   uint64
	lease  freelist.Lease
}

// index hashes every chunk on keys and chains its rows into heads/next in
// one pass: a power-of-two slot table at least twice the row count.
func (h *hashBuild) index(keys []int) {
	n := 0
	h.hashes = make([][]uint64, len(h.chunks))
	for c, b := range h.chunks {
		h.hashes[c] = b.HashInto(keys, freelist.Uint64s.Draw(&h.lease, 8*BatchSize))
		n += b.N
	}
	slots := 1
	for slots < 2*n {
		slots <<= 1
	}
	h.heads, h.next, h.mask = h.draw32(slots), h.draw32(n), uint64(slots-1)
	clear(h.heads)
	for r := n - 1; r >= 0; r-- {
		slot := h.hashes[r/BatchSize][r%BatchSize] & h.mask
		h.next[r] = h.heads[slot]
		h.heads[slot] = int32(r + 1)
	}
}

// draw32 returns an int32 slice of length n, of unspecified contents.
func (h *hashBuild) draw32(n int) []int32 {
	return freelist.Int32s.Draw(&h.lease, 4*int64(n))[:n]
}

// giveBack gives chunk i back to the free list once nothing reads it.
func (h *hashBuild) giveBack(i int) {
	if c := h.chunks[i]; c != nil {
		c.Recycle(&h.lease, BatchSize)
		h.chunks[i] = nil
	}
}

// release gives the build's buffers back to the free list; a second
// release finds nothing.
func (h *hashBuild) release() {
	for i := range h.chunks {
		h.giveBack(i)
	}
	for _, s := range h.hashes {
		freelist.Uint64s.Put(&h.lease, s)
	}
	freelist.Int32s.Put(&h.lease, h.heads)
	freelist.Int32s.Put(&h.lease, h.next)
	*h = hashBuild{}
}

// buildHashed drains op into a hashBuild: each batch's live rows are copied
// column-wise (ColBatch.AppendBatch) into fixed BatchSize-row chunks —
// fixed, because one growing batch would copy its slices over and over as
// it regrows — and once op is drained the chunks are hashed
// (ColBatch.HashInto) and indexed. A failed build gives back what it drew.
//
// With a governor the build is charged joinRowMemEst per row, its running
// total covered by a fault.Reservation after each batch. On a denied
// reservation it stops at that batch boundary and returns pressured=true
// with the unindexed chunks holding every row drained so far, in input
// order, for the grace path; op is left mid-stream for the caller to keep
// draining. The reservation is released before returning — the grace
// sorters account for their own memory.
func buildHashed(op ColOperator, keys []int, gov *fault.Governor) (*hashBuild, bool, error) {
	h := &hashBuild{}
	b := drawPull(op.Schema())
	defer recyclePull(b)
	perRow := joinRowMemEst(op.Schema().Len())
	var last *table.ColBatch
	var est int64
	mem := fault.NewReservation(gov)
	defer mem.Release()
	for {
		n, err := op.NextColBatch(b)
		if err != nil {
			h.release()
			return nil, false, err
		}
		if n == 0 {
			h.index(keys)
			return h, false, nil
		}
		for lo := 0; lo < n; {
			if last == nil || last.N == BatchSize {
				last = table.NewColBatch(op.Schema())
				last.Draw(&h.lease, BatchSize)
				h.chunks = append(h.chunks, last)
			}
			hi := min(n, lo+BatchSize-last.N)
			last.AppendBatch(b, lo, hi)
			// A string column settles its layout on its first cell, and
			// only then can its storage be reserved.
			last.Reserve(BatchSize)
			lo = hi
		}
		if est += perRow * int64(n); !mem.Cover(est) {
			return h, true, nil
		}
	}
}

// Governed is the memory-governor plumbing of a hash join, set on the join
// before it opens.
type Governed struct {
	Mem        *fault.Governor // optional: charge the build side, degrade to grace mode on denial
	SortBudget int             // grace-mode sort budget (tuples); 0 = storage.DefaultSortBudget
	TmpDir     string          // grace-mode spill dir; "" = os.TempDir()
	grace      *graceMerge     // non-nil after a memory-pressured open
	graced     bool            // sticky across close: the last open degraded
}

// GraceMode reports whether the last Open degraded to sort-merge under
// memory pressure. The flag survives Close so callers can inspect it after
// the plan is torn down.
func (g *Governed) GraceMode() bool { return g.graced }

// openGrace finishes a pressured open: drained holds the build side's
// prefix as its unindexed column chunks, right the opened remainder. The
// right side is sorted first, and its sorter finished — its reservation
// released — before the left side's sort starts.
func (g *Governed) openGrace(left, right ColOperator, lk, rk []int, drained *hashBuild) error {
	rightIt, err := g.sortOn(right, rk, drained)
	if err != nil {
		return err
	}
	leftIt, err := g.sortOn(left, lk, nil)
	if err != nil {
		rightIt.Close()
		return err
	}
	m := &graceMerge{l: sortedSide{it: leftIt, keys: lk}, r: sortedSide{it: rightIt, keys: rk}}
	drawPullInto(&m.l.b, left.Schema())
	drawPullInto(&m.r.b, right.Schema())
	drawPullInto(&m.block, right.Schema())
	if err = m.l.advance(); err == nil {
		err = m.r.advance()
	}
	if err != nil {
		m.close()
		return err
	}
	g.grace, g.graced = m, true
	return nil
}

// sortOn sorts the chunks of pre (nil: none), then the rest of op's
// stream, on keys in a key sorter under the join's governor and returns the
// sorted stream. Each chunk of pre goes back to the free list once the
// sorter has copied it. op is closed once drained, so what its subtree
// holds is released before the merge; a failed sort leaves no spill run
// behind.
func (g *Governed) sortOn(op ColOperator, keys []int, pre *hashBuild) (it *storage.SortedBatches, err error) {
	s := storage.NewKeySorter(op.Schema(), keys, g.SortBudget, g.TmpDir)
	s.Govern(g.Mem)
	defer func() {
		if err != nil {
			s.Discard()
		}
	}()
	if pre != nil {
		for i, b := range pre.chunks {
			if err := s.AddBatch(b); err != nil {
				return nil, err
			}
			pre.giveBack(i) // copied: the sort goes on without it
		}
	}
	b := drawPull(op.Schema())
	defer recyclePull(b)
	for {
		n, err := op.NextColBatch(b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		if err := s.AddBatch(b); err != nil {
			return nil, err
		}
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return s.FinishBatches()
}
