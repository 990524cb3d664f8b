package engine

import (
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/table"
)

// The hash join's build loop and its memory-governed cold path. A governed
// join charges its build side against a fault.Governor as it grows; when a
// reservation is denied the join abandons the in-memory hash table and
// degrades to a sort-merge strategy — both inputs are sorted on their join
// keys by governed external sorts (which spill under the same pressure) and
// merge-joined. The output multiset is identical; only the memory profile
// changes, bounded by the sort budget instead of the build-side cardinality.

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
	grace      *MergeJoin      // non-nil after a memory-pressured open
	graced     bool            // sticky across close: the last open degraded
}

// GraceMode reports whether the last Open degraded to sort-merge under
// memory pressure. The flag survives Close so callers can inspect it after
// the plan is torn down.
func (g *Governed) GraceMode() bool { return g.graced }

// preOpened adapts an operator that Open was already called on: a wrapping
// Sort can re-"open" it without double-opening the underlying tree.
type preOpened struct {
	Operator
}

func (preOpened) Open() error { return nil }

// iterOp adapts a sorted TupleIterator (an external sorter's output) into
// an Operator; Close releases the iterator, removing any spill runs.
type iterOp struct {
	schema *table.Schema
	sortedStream
}

func (o *iterOp) Schema() *table.Schema { return o.schema }
func (o *iterOp) Open() error           { return nil }

// openedRows views an opened columnar operator through the row interface.
func openedRows(op ColOperator) *ColToRows {
	return &ColToRows{In: op, b: table.NewColBatch(op.Schema())}
}

// openGrace finishes a pressured open: buffered holds the build-side prefix
// already drained, right the opened remainder. Both sides are read as rows,
// sorted on their join keys under the governor and merge-joined.
func (g *Governed) openGrace(leftCols, rightCols ColOperator, lk, rk []int, buffered []table.Tuple) error {
	left, right := openedRows(leftCols), openedRows(rightCols)
	rs := storage.NewKeySorter(rk, g.SortBudget, g.TmpDir)
	rs.Govern(g.Mem)
	if err := rs.AddRows(buffered); err != nil {
		rs.Discard()
		return err
	}
	if err := pumpRows(right, rs.AddRows); err != nil {
		rs.Discard()
		return err
	}
	rightIt, err := rs.Finish()
	if err != nil {
		return err
	}
	sortedRight := &iterOp{schema: right.Schema(), sortedStream: sortedStream{it: rightIt}}
	sortedLeft := &Sort{
		In:     preOpened{left},
		Spec:   SortSpec{Cols: lk},
		Budget: g.SortBudget,
		TmpDir: g.TmpDir,
		Mem:    g.Mem,
	}
	mj, err := NewMergeJoin(sortedLeft, sortedRight, lk, rk)
	if err != nil {
		sortedRight.Close()
		return err
	}
	if err := mj.Open(); err != nil {
		sortedRight.Close()
		sortedLeft.Close()
		return err
	}
	g.grace = mj
	g.graced = true
	return nil
}
