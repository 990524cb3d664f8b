package engine

import (
	"fmt"

	"repro/internal/table"
)

// ColHashJoin is the equi-join: the right input is drained into a TupleMap
// (buildHashed: rows materialized from its column batches under their
// vectorized ColBatch.HashInto hashes), and left batches probe it with
// hashes computed the same way. Output rows gather left cells column-wise
// (ColVec.AppendCell — typed, allocation-free) and append the matched build
// tuples' cells; matches come in probe order, First then Rest within a
// group. The probe is resumable — it remembers the probe row and the
// position inside its matched group across calls — so an output batch never
// exceeds BatchSize however many build rows a key matches. The output schema
// is left ++ right; the planner projects away the duplicated join
// attributes afterwards (the paper assumes join attributes share names
// across tables). Governed makes the build side memory-accounted: under a
// governor that denies it the join degrades to a grace join (gracejoin.go),
// reading its inputs through ColToRows and transposing the merge join's
// rows back.
type ColHashJoin struct {
	Left, Right         ColOperator
	LeftKeys, RightKeys []int
	Governed
	out    *table.Schema
	built  *table.TupleMap
	in     *table.ColBatch
	hashes []uint64
	rows   []table.Tuple // reused grace-mode output batch

	// Probe position: live rows [i, n) of in are still to probe; the group
	// matched by physical row `row` has emitted its first gpos of glen rows.
	n, i       int
	row        int
	g          table.Group
	gpos, glen int
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
	if j.in == nil {
		j.in = table.NewColBatch(j.Left.Schema())
	}
	j.n, j.i, j.gpos, j.glen = 0, 0, 0, 0
	j.built, j.grace, j.graced = nil, nil, false
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	built, buffered, pressured, err := buildHashed(j.Right, j.RightKeys, j.Mem)
	if err == nil && pressured {
		err = j.openGrace(j.Left, j.Right, j.LeftKeys, j.RightKeys, buffered)
	}
	if err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	j.built = built
	return nil
}

// NextColBatch fills dst with the next matches, up to BatchSize of them, in
// probe order (First then Rest within a group), pulling left batches as the
// probe exhausts them.
func (j *ColHashJoin) NextColBatch(dst *table.ColBatch) (int, error) {
	if j.grace != nil {
		j.rows = batchScratch(j.rows, BatchSize)
		n, err := j.grace.NextBatch(j.rows)
		if err != nil {
			return 0, err
		}
		return rowsToBatch(dst, j.out, j.rows[:n]), nil
	}
	dst.Reset(j.out)
	lw := j.in.Schema.Len()
	for {
		for ; j.gpos < j.glen; j.gpos++ {
			if dst.N == BatchSize {
				return dst.N, nil
			}
			r := j.g.First
			if j.gpos > 0 {
				r = j.g.Rest[j.gpos-1]
			}
			j.emit(dst, j.row, lw, r)
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
		j.row = j.in.RowID(j.i)
		var ok bool
		j.g, ok = j.built.LookupHashedCols(j.hashes[j.i], j.in, j.LeftKeys, j.row)
		j.i++
		j.gpos, j.glen = 0, 0
		if ok {
			j.glen = 1 + len(j.g.Rest)
		}
	}
}

// emit appends one joined row: left cells gathered column-wise from the
// probe batch, right cells from the stored build tuple.
func (j *ColHashJoin) emit(dst *table.ColBatch, row, lw int, r table.Tuple) {
	for c := 0; c < lw; c++ {
		dst.Cols[c].AppendCell(dst.N, &j.in.Cols[c], row)
	}
	for k, v := range r {
		dst.Cols[lw+k].AppendValue(dst.N, v)
	}
	dst.N++
}

// Close closes the grace join (if any) and both inputs, and drops the hash
// table. In grace mode the merge join owns the left input (via its wrapping
// Sort) and the sorted right stream; the inputs themselves are closed here
// either way.
func (j *ColHashJoin) Close() error {
	j.built = nil
	var errG error
	if j.grace != nil {
		errG = j.grace.Close()
		j.grace = nil
	}
	return firstErr(errG, j.Left.Close(), j.Right.Close())
}

// rowsToBatch transposes rows onto dst — the rows→columns boundary that
// in-memory scans and the grace join cross.
func rowsToBatch(dst *table.ColBatch, s *table.Schema, rows []table.Tuple) int {
	dst.Reset(s)
	for _, t := range rows {
		dst.AppendRow(t)
	}
	return dst.N
}
