package engine

import (
	"io"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/table"
)

// The shared half of the hash-join family: one build loop that both tiers'
// joins feed through a per-batch source, and the memory-governed Open path
// with its grace fallback. A governed join charges its build side against a
// fault.Governor as it grows; when a reservation is denied the join abandons
// the in-memory hash table and degrades to a sort-merge strategy — both
// inputs are sorted on their join keys by governed external sorts (which
// spill under the same pressure) and merge-joined. The output multiset is
// identical; only the memory profile changes, bounded by the sort budget
// instead of the build-side cardinality.

// joinMemChunk is the reservation granularity of a governed build side.
const joinMemChunk = 64 << 10

// joinTupleMemEst approximates the heap footprint of one build-side tuple:
// the buffered handoff slot, the map group entry, and per-value storage.
func joinTupleMemEst(t table.Tuple) int64 { return 64 + 48*int64(len(t)) }

// buildSource yields a join input one batch per call: rows in storage that
// outlives the batch, and each row's join-key hash (table.HashOn, or its
// vectorized twin ColBatch.HashInto). No rows means end of stream. Both
// slices are reused by the next call.
type buildSource func() (rows []table.Tuple, hashes []uint64, err error)

// rowBuildSource is the row tier's source: NextBatch under the stable/slab
// rule, hashed row by row.
func rowBuildSource(op Operator, keys []int) buildSource {
	r := newStableReader(op)
	hashes := make([]uint64, BatchSize)
	return func() ([]table.Tuple, []uint64, error) {
		rows, err := r.next()
		for i, t := range rows {
			hashes[i] = table.HashOn(t, keys)
		}
		return rows, hashes[:len(rows)], err
	}
}

// colBuildSource is the columnar tier's source: each batch is hashed in one
// vectorized pass, then its live rows are materialized into slab storage.
func colBuildSource(op ColOperator, keys []int) buildSource {
	b := table.NewColBatch(op.Schema())
	w := op.Schema().Len()
	var slab table.Slab
	var rows []table.Tuple
	var hashes []uint64
	return func() ([]table.Tuple, []uint64, error) {
		n, err := op.NextColBatch(b)
		if err != nil {
			return nil, nil, err
		}
		hashes = b.HashInto(keys, hashes)
		rows = rows[:0]
		for i := 0; i < n; i++ {
			t := slab.Alloc(w)
			b.WriteRow(i, t)
			rows = append(rows, t)
		}
		return rows, hashes[:n], nil
	}
}

// buildHashed drains src into a TupleMap — the family's one build loop.
// Rows are inserted in source order under their carried hashes, so every
// tier builds the same groups in the same order and the joins emit matches
// identically. The map deliberately starts empty: presizing by row count
// over-allocates heavily on repeated join keys (FK joins) and measures
// slower.
//
// With a governor the build is charged in joinMemChunk steps. On a denied
// reservation it stops at a batch boundary and returns pressured=true along
// with every row drained so far (in input order, so the grace path sees the
// input's ordering); the source is left mid-stream for the caller to keep
// draining. All reservations are released before returning — the grace
// sorters account for their own memory.
func buildHashed(src buildSource, keys []int, gov *fault.Governor) (built *table.TupleMap, buffered []table.Tuple, pressured bool, err error) {
	built = table.NewTupleMap(keys, 0)
	var est, reserved int64
	defer func() { gov.Release(reserved) }()
	for {
		rows, hashes, err := src()
		if err != nil {
			return nil, nil, false, err
		}
		if len(rows) == 0 {
			return built, nil, false, nil
		}
		for i, t := range rows {
			built.AddHashed(hashes[i], t)
		}
		if gov == nil {
			continue
		}
		buffered = append(buffered, rows...)
		for _, t := range rows {
			est += joinTupleMemEst(t)
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

// Governed is the memory-governor plumbing of a hash join. HashJoin embeds
// it; the ColHashJoin a governed HashJoin lowers to shares the same value
// (as ColCounted shares its OpStats), so GraceMode on the row join answers
// for whichever tier ran.
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

// open is the family's one Open path. left and right are the join's inputs
// as row operators (the columnar join passes ColToRows views), src reads
// right's stream in the join's own tier. It opens both inputs and builds the
// hash table from src; under memory pressure it switches to grace mode
// instead and returns no table. A failed open leaves the join fully closed,
// children included — child scanners' pinned pages, a grace sorter's spill
// runs — before surfacing the error (Close is idempotent throughout the
// engine, so re-closing an input some error path already closed is safe).
func (g *Governed) open(left, right Operator, lk, rk []int, src buildSource) (*table.TupleMap, error) {
	g.grace, g.graced = nil, false
	if err := left.Open(); err != nil {
		return nil, err
	}
	if err := right.Open(); err != nil {
		left.Close()
		return nil, err
	}
	built, buffered, pressured, err := buildHashed(src, rk, g.Mem)
	if err == nil && pressured {
		err = g.openGrace(left, right, lk, rk, buffered)
	}
	if err != nil {
		left.Close()
		right.Close()
		return nil, err
	}
	return built, nil
}

// close closes the grace join (if any) and both inputs. In grace mode the
// merge join owns the left input (via its wrapping Sort) and the sorted
// right stream; the inputs themselves are closed here either way.
func (g *Governed) close(left, right io.Closer) error {
	var errG error
	if g.grace != nil {
		errG = g.grace.Close()
		g.grace = nil
	}
	return firstErr(errG, left.Close(), right.Close())
}

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

// openGrace finishes a pressured open: buffered holds the build-side prefix
// already drained, right the opened remainder. Both sides are sorted on
// their join keys under the governor and merge-joined.
func (g *Governed) openGrace(left, right Operator, lk, rk []int, buffered []table.Tuple) error {
	rs := storage.NewKeySorter(rk, g.SortBudget, g.TmpDir)
	rs.Govern(g.Mem)
	if err := rs.AddRows(buffered); err != nil {
		rs.Discard()
		return err
	}
	if err := pumpRows(nil, right, BatchSize, rs.AddRows); err != nil {
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
