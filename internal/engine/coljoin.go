package engine

import (
	"repro/internal/table"
)

// Columnar hash joins: the columnar members of the hash-join family. Both
// hash whole probe/build batches at once with ColBatch.HashInto — the
// vectorized form of table.HashOn, bit-identical per row — and build through
// the family's one loop (buildHashed), so a columnar build side holds exactly
// the groups a row build would and emits matches in the same order (probe
// rows in scan order, First then Rest per group). That order identity is
// what keeps confidences pinned across the two tiers.

// ColHashJoin is the columnar equi-join: the right input is drained into a
// TupleMap (rows materialized from its column batches), and left batches
// probe it with vectorized hashes. Output rows gather left cells column-wise
// (ColVec.AppendCell — typed, allocation-free) and append the matched build
// tuples' cells. The probe is resumable — it remembers the probe row and the
// position inside its matched group across calls — so an output batch never
// exceeds BatchSize however many build rows a key matches. Under a governor
// that denies the build it degrades to the same grace join as HashJoin,
// reading its inputs through ColToRows and transposing the merge join's rows
// back.
type ColHashJoin struct {
	Left, Right         ColOperator
	LeftKeys, RightKeys []int
	*Governed
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

// Schema returns left ++ right.
func (j *ColHashJoin) Schema() *table.Schema { return j.out }

// Open opens both inputs and builds the hash table over the right
// (Governed.open).
func (j *ColHashJoin) Open() error {
	if j.in == nil {
		j.in = table.NewColBatch(j.Left.Schema())
	}
	j.n, j.i, j.gpos, j.glen = 0, 0, 0, 0
	var err error
	j.built, err = j.open(NewColToRows(j.Left), NewColToRows(j.Right), j.LeftKeys, j.RightKeys, colBuildSource(j.Right, j.RightKeys))
	return err
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

// Close closes both inputs and drops the hash table.
func (j *ColHashJoin) Close() error {
	j.built = nil
	return j.close(j.Left, j.Right)
}

// rowsToBatch transposes rows onto dst — the rows→columns boundary that
// in-memory scans, the grace join and the row tier's drain cross.
func rowsToBatch(dst *table.ColBatch, s *table.Schema, rows []table.Tuple) int {
	dst.Reset(s)
	for _, t := range rows {
		dst.AppendRow(t)
	}
	return dst.N
}
