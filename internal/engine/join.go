package engine

import (
	"fmt"

	"repro/internal/table"
)

// MergeJoin equi-joins two inputs already sorted on their join keys. Blocks
// of equal right keys are buffered to form the cross product with each
// matching left tuple. The output order (sorted by join keys) is what makes
// merge joins attractive right below the confidence operator, whose input
// must be sorted anyway (§V.B: "the order of tuples after most joins favours
// grouping and thus our operator").
type MergeJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []int
	out                 *table.Schema

	l, r     mergeSide
	block    []table.Tuple // kept right tuples sharing the current key
	blockPos int
	inBlock  bool
	slots    slotBufs
}

// mergeSide is one input of a merge join: a cursor and its current tuple.
type mergeSide struct {
	cur Cursor
	t   table.Tuple
	ok  bool
}

func (s *mergeSide) advance() error {
	t, ok, err := s.cur.Next()
	//sproutvet:allow batchalias a side's current tuple is replaced by the very advance that can refill its cursor
	s.t, s.ok = t, ok
	return err
}

// NewMergeJoin joins sorted inputs on pairwise-equal key columns.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int) (*MergeJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("engine: merge join key arity mismatch")
	}
	return &MergeJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		out: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema returns left ++ right.
func (j *MergeJoin) Schema() *table.Schema { return j.out }

// Open opens both inputs and primes the cursors.
func (j *MergeJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	j.l.cur.Reset(j.Left)
	j.r.cur.Reset(j.Right)
	j.block, j.inBlock = j.block[:0], false
	err := j.l.advance()
	if err == nil {
		err = j.r.advance()
	}
	if err != nil {
		j.Left.Close()
		j.Right.Close()
	}
	return err
}

func (j *MergeJoin) cmpKeys(l, r table.Tuple) int {
	for i := range j.LeftKeys {
		if c := table.Compare(l[j.LeftKeys[i]], r[j.RightKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// NextBatch emits joined tuples into reused per-slot buffers. The current
// left tuple is only read until the left cursor advances, so it is never
// cloned; right tuples buffered into a block outlive right-side refills and
// are kept (cloned only when the right input is unstable).
func (j *MergeJoin) NextBatch(dst []table.Tuple) (int, error) {
	n := 0
	for n < len(dst) {
		if j.inBlock {
			if j.blockPos < len(j.block) {
				buf := j.slots.slot(n, j.out.Len())
				copy(buf, j.l.t)
				copy(buf[len(j.l.t):], j.block[j.blockPos])
				j.blockPos++
				dst[n] = buf
				n++
				continue
			}
			// Done pairing the current left tuple with the block; a left
			// successor with the same key pairs with it again.
			if err := j.l.advance(); err != nil {
				return 0, err
			}
			if j.l.ok && j.cmpKeys(j.l.t, j.block[0]) == 0 {
				j.blockPos = 0
				continue
			}
			j.inBlock = false
		}
		if !j.l.ok || !j.r.ok {
			break
		}
		var err error
		switch c := j.cmpKeys(j.l.t, j.r.t); {
		case c < 0:
			err = j.l.advance()
		case c > 0:
			err = j.r.advance()
		default:
			// Buffer the whole right block with this key. Its members are
			// compared on the right key columns: indexing a right tuple with
			// LeftKeys would read the wrong columns whenever the two key
			// layouts differ.
			j.block = j.block[:0]
			for err == nil && j.r.ok && (len(j.block) == 0 || table.EqualOn(j.r.t, j.block[0], j.RightKeys)) {
				j.block = append(j.block, j.r.cur.Keep(j.r.t))
				err = j.r.advance()
			}
			j.blockPos, j.inBlock = 0, true
		}
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Close closes both inputs.
func (j *MergeJoin) Close() error {
	return firstErr(j.Left.Close(), j.Right.Close())
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
