package engine

import (
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/table"
)

// Grace mode for the hash join. A governed HashJoin charges its build side
// against a fault.Governor as it grows; when a reservation is denied the
// join abandons the in-memory hash table and degrades to a sort-merge
// strategy — both inputs are sorted on their join keys by governed external
// sorts (which spill under the same pressure) and merge-joined. The output
// multiset is identical; only the memory profile changes, bounded by the
// sort budget instead of the build-side cardinality.

// joinMemChunk is the reservation granularity of a governed build side.
const joinMemChunk = 64 << 10

// joinTupleMemEst approximates the heap footprint of one build-side tuple:
// the buffered handoff slot, the map group entry, and per-value storage.
func joinTupleMemEst(t table.Tuple) int64 { return 64 + 48*int64(len(t)) }

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
	it     storage.TupleIterator
}

func (o *iterOp) Schema() *table.Schema { return o.schema }
func (o *iterOp) Open() error           { return nil }
func (o *iterOp) Next() (table.Tuple, bool, error) {
	if o.it == nil {
		return nil, false, nil
	}
	return o.it.Next()
}

// StableTuples: the iterator comes from ExternalSorter.Finish, the stable
// mode, matching Sort's contract.
func (o *iterOp) StableTuples() bool { return true }

func (o *iterOp) Close() error {
	if o.it == nil {
		return nil
	}
	err := o.it.Close()
	o.it = nil
	return err
}

// buildGoverned drains op into a TupleMap, charging gov in joinMemChunk
// steps. On a denied reservation it stops at a batch boundary and returns
// pressured=true along with every tuple drained so far (in input order, so
// the grace path preserves the ungoverned path's tuple ordering); op is
// left open and mid-stream for the caller to continue draining. All
// reservations are released before returning — the grace sorters account
// for their own memory.
func buildGoverned(op Operator, keys []int, gov *fault.Governor) (built *table.TupleMap, buffered []table.Tuple, pressured bool, err error) {
	built = table.NewTupleMap(keys, 0)
	var est, reserved int64
	release := func() {
		gov.Release(reserved)
		reserved = 0
	}
	buf := make([]table.Tuple, BatchSize)
	stable := Stable(op)
	var slab table.Slab
	for {
		n, err := NextBatch(op, buf)
		if err != nil {
			release()
			return nil, nil, false, err
		}
		if n == 0 {
			release()
			return built, nil, false, nil
		}
		for _, t := range buf[:n] {
			if !stable {
				t = slab.Clone(t)
			}
			est += joinTupleMemEst(t)
			buffered = append(buffered, t) //sproutvet:allow batchalias t is slab-cloned above unless the source promises StableTuples — drainCtx's conditional-stability idiom, inlined so one clone serves both the map and the grace buffer
			built.Add(t)
		}
		if est > reserved {
			need := ((est - reserved + joinMemChunk - 1) / joinMemChunk) * joinMemChunk
			if !gov.TryReserve(need) {
				release()
				return nil, buffered, true, nil
			}
			reserved += need
		}
	}
}

// openGrace finishes a pressured Open: buffered holds the build-side prefix
// already drained, j.Right the remainder. Both sides are sorted on their
// join keys under the governor and merge-joined.
func (j *HashJoin) openGrace(buffered []table.Tuple) error {
	rs := storage.NewKeySorter(j.RightKey, j.SortBudget, j.TmpDir)
	rs.Govern(j.Mem)
	for _, t := range buffered {
		if err := rs.Add(t); err != nil {
			rs.Discard()
			return err
		}
	}
	if err := drainEach(j.Right, rs.Add); err != nil {
		rs.Discard()
		return err
	}
	rightIt, err := rs.Finish()
	if err != nil {
		return err
	}
	right := &iterOp{schema: j.Right.Schema(), it: rightIt}
	left := &Sort{
		In:     preOpened{j.Left},
		Spec:   SortSpec{Cols: j.LeftKeys},
		Budget: j.SortBudget,
		TmpDir: j.TmpDir,
		Mem:    j.Mem,
	}
	mj, err := NewMergeJoin(left, right, j.LeftKeys, j.RightKey)
	if err != nil {
		right.Close()
		return err
	}
	if err := mj.Open(); err != nil {
		right.Close()
		left.Close()
		return err
	}
	j.grace = mj
	j.graced = true
	return nil
}

// GraceMode reports whether the last Open degraded to sort-merge under
// memory pressure. The flag survives Close so callers can inspect it after
// the plan is torn down.
func (j *HashJoin) GraceMode() bool { return j.graced }
