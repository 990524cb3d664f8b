package engine

import (
	"repro/internal/fault"
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

// joinMemChunk is the reservation granularity of a governed build side.
const joinMemChunk = 64 << 10

// joinTupleMemEst approximates the heap footprint of one build-side tuple:
// the buffered handoff slot, the map group entry, and per-value storage.
func joinTupleMemEst(t table.Tuple) int64 { return 64 + 48*int64(len(t)) }

// buildHashed drains op into a TupleMap: each batch is hashed in one
// vectorized pass (ColBatch.HashInto), its live rows are materialized into
// slab storage and inserted in input order under their hashes. The map
// deliberately starts empty: presizing by row count over-allocates heavily
// on repeated join keys (FK joins) and measures slower.
//
// With a governor the build is charged in joinMemChunk steps. On a denied
// reservation it stops at a batch boundary and returns pressured=true along
// with every row drained so far (in input order, so the grace path sees the
// input's ordering); op is left mid-stream for the caller to keep draining.
// All reservations are released before returning — the grace sorters
// account for their own memory.
func buildHashed(op ColOperator, keys []int, gov *fault.Governor) (built *table.TupleMap, buffered []table.Tuple, pressured bool, err error) {
	built = table.NewTupleMap(keys, 0)
	b := table.NewColBatch(op.Schema())
	w := op.Schema().Len()
	var slab table.Slab
	var hashes []uint64
	var est, reserved int64
	defer func() { gov.Release(reserved) }()
	for {
		n, err := op.NextColBatch(b)
		if err != nil {
			return nil, nil, false, err
		}
		if n == 0 {
			return built, nil, false, nil
		}
		hashes = b.HashInto(keys, hashes)
		for i := 0; i < n; i++ {
			t := slab.Alloc(w)
			b.WriteRow(i, t)
			built.AddHashed(hashes[i], t)
			if gov != nil {
				buffered = append(buffered, t)
				est += joinTupleMemEst(t)
			}
		}
		if est > reserved {
			need := ((est - reserved + joinMemChunk - 1) / joinMemChunk) * joinMemChunk
			if !gov.TryReserve(need) {
				return nil, buffered, true, nil
			}
			reserved += need
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

// openGrace finishes a pressured open: buffered holds the build-side prefix
// already drained, right the opened remainder. The right side is sorted
// first, and its sorter finished — its reservation released — before the
// left side's sort starts.
func (g *Governed) openGrace(left, right ColOperator, lk, rk []int, buffered []table.Tuple) error {
	rightIt, err := g.sortOn(right, rk, buffered)
	if err != nil {
		return err
	}
	leftIt, err := g.sortOn(left, lk, nil)
	if err != nil {
		rightIt.Close()
		return err
	}
	m := &graceMerge{l: sortedSide{it: leftIt, keys: lk}, r: sortedSide{it: rightIt, keys: rk}}
	m.block.Reset(right.Schema())
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

// sortOn sorts pre, then the rest of op's stream, on keys in a key sorter
// under the join's governor and returns the sorted stream. op is closed
// once drained, so what its subtree holds is released before the merge; a
// failed sort leaves no spill run behind.
func (g *Governed) sortOn(op ColOperator, keys []int, pre []table.Tuple) (it storage.TupleIterator, err error) {
	s := storage.NewKeySorter(op.Schema(), keys, g.SortBudget, g.TmpDir)
	s.Govern(g.Mem)
	defer func() {
		if err != nil {
			s.Discard()
		}
	}()
	for _, t := range pre {
		if err := s.Add(t); err != nil {
			return nil, err
		}
	}
	b := table.NewColBatch(op.Schema())
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
	return s.Finish()
}
