package engine

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/table"
)

// ColHashJoin is the equi-join: the right input is drained into a hashBuild
// (buildHashed: its batches copied column-wise into BatchSize-row chunks,
// then indexed by their vectorized ColBatch.HashInto hashes in one chained
// pass), and left batches probe it with hashes computed the same way. A
// candidate build row matches when its hash and then its key cells equal
// the probe row's (ColVec.CompareCell — no cell is materialized). Output
// rows gather left cells from the probe batch and right cells from the
// build chunk (ColVec.AppendCell — typed, allocation-free); matches come in
// probe order, then in build-input order within a key. The probe is
// resumable — it remembers the probe row and its next candidate build row
// across calls — so an output batch never exceeds BatchSize however many
// build rows a key matches. The output schema is left ++ right; the planner
// projects away the duplicated join attributes afterwards (the paper
// assumes join attributes share names across tables). Governed makes the
// build side memory-accounted, at a fixed estimate per build row: under a
// governor that denies it the join degrades to a grace join (gracejoin.go),
// which sorts both inputs and merges them into the same column batches.
type ColHashJoin struct {
	Left, Right         ColOperator
	LeftKeys, RightKeys []int
	Governed
	out    *table.Schema
	built  *hashBuild
	in     *table.ColBatch
	hashes []uint64

	// Probe position: live rows [i, n) of in are still to probe; physical
	// row `row` of in, of hash `hash`, has its chain still to walk from
	// build row cand-1 (cand = 0: walked).
	n, i int
	row  int
	hash uint64
	cand int32
}

// NewColHashJoin joins left and right on pairwise-equal key columns. No
// keys at all is the cross product.
func NewColHashJoin(left, right ColOperator, leftKeys, rightKeys []int) (*ColHashJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("engine: hash join key arity mismatch")
	}
	return &ColHashJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		out: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema returns left ++ right.
func (j *ColHashJoin) Schema() *table.Schema { return j.out }

// Open opens both inputs and builds the hash table over the right one; under
// memory pressure it switches to grace mode instead. A failed Open leaves
// the join fully closed, children included — child scanners' pinned pages, a
// grace sorter's spill runs — before surfacing the error (Close is
// idempotent throughout the engine, so re-closing an input some error path
// already closed is safe).
func (j *ColHashJoin) Open() error {
	j.n, j.i, j.cand = 0, 0, 0
	j.releaseBuild() // a re-Open's previous build and probe buffers
	j.grace, j.graced = nil, false
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	built, pressured, err := buildHashed(j.Right, j.RightKeys, j.Mem)
	if err == nil && pressured {
		err = j.openGrace(j.Left, j.Right, j.LeftKeys, j.RightKeys, built)
		built.release() // what the grace sort did not copy and give back
		built = nil
	}
	if err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	j.built = built
	if built != nil {
		j.in = drawPull(j.Left.Schema())
		j.hashes = freelist.Uint64s.Draw(&pullLease, 8*BatchSize)
	}
	return nil
}

// NextColBatch fills dst with the next matches, up to BatchSize of them, in
// probe order (build-input order within a key), pulling left batches as the
// probe exhausts them.
func (j *ColHashJoin) NextColBatch(dst *table.ColBatch) (int, error) {
	if j.grace != nil {
		return j.grace.next(dst, j.out)
	}
	dst.Reset(j.out)
	h := j.built
	for {
		for j.cand != 0 {
			if dst.N == BatchSize {
				return dst.N, nil
			}
			r := int(j.cand - 1)
			j.cand = h.next[r]
			c, cr := r/BatchSize, r%BatchSize
			if h.hashes[c][cr] == j.hash && j.keysEqual(h.chunks[c], cr) {
				j.emit(dst, h.chunks[c], cr)
			}
		}
		if j.i == j.n {
			n, err := j.Left.NextColBatch(j.in)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return dst.N, nil
			}
			j.hashes = j.in.HashInto(j.LeftKeys, j.hashes)
			j.n, j.i = n, 0
		}
		j.row, j.hash = j.in.RowID(j.i), j.hashes[j.i]
		j.cand = h.heads[j.hash&h.mask]
		j.i++
	}
}

// keysEqual reports whether the probe row's key cells equal build row cr
// of chunk c's, pairwise under Compare semantics.
func (j *ColHashJoin) keysEqual(c *table.ColBatch, cr int) bool {
	for k, lk := range j.LeftKeys {
		if j.in.Cols[lk].CompareCell(j.row, &c.Cols[j.RightKeys[k]], cr) != 0 {
			return false
		}
	}
	return true
}

// emit appends one joined row: left cells gathered column-wise from the
// probe batch, right cells from build row cr of chunk c.
func (j *ColHashJoin) emit(dst *table.ColBatch, c *table.ColBatch, cr int) {
	lw := len(j.in.Cols)
	for k := 0; k < lw; k++ {
		dst.Cols[k].AppendCell(dst.N, &j.in.Cols[k], j.row)
	}
	for k := range c.Cols {
		dst.Cols[lw+k].AppendCell(dst.N, &c.Cols[k], cr)
	}
	dst.N++
}

// Close releases the grace merge's sorted streams (if any), closes both
// inputs and gives the build side and the probe buffers back.
func (j *ColHashJoin) Close() error {
	j.releaseBuild()
	var errG error
	if j.grace != nil {
		errG = j.grace.close()
		j.grace = nil
	}
	return firstErr(errG, j.Left.Close(), j.Right.Close())
}

// releaseBuild gives the build side's buffers, and the probe batch and
// hashes, back to the free list, once.
func (j *ColHashJoin) releaseBuild() {
	if j.built != nil {
		j.built.release()
		j.built = nil
	}
	recyclePull(j.in)
	j.in = nil
	if j.hashes != nil {
		freelist.Uint64s.Put(&pullLease, j.hashes)
		j.hashes = nil
	}
}
