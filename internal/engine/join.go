package engine

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/table"
)

// buildSide drains an operator into a TupleMap keyed on the given columns;
// tuples are retained, so drainEach's stable/slab clone rule applies.
func buildSide(op Operator, keys []int) (*table.TupleMap, error) {
	if ms, ok := op.(*MemScan); ok {
		// Fast path: the rows are already materialized and stable. The map
		// deliberately starts empty — presizing by row count over-allocates
		// heavily on repeated join keys (FK joins) and measures slower.
		built := table.NewTupleMap(keys, 0)
		for _, t := range ms.Rel.Rows {
			built.Add(t)
		}
		return built, nil
	}
	built := table.NewTupleMap(keys, 0)
	err := drainEach(op, func(t table.Tuple) error {
		built.Add(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return built, nil
}

// HashJoin is an equi-join: it builds a hash table on the right input and
// probes with the left. The build side is keyed by table.HashOn hashes with
// Compare-based collision chains, so neither building nor probing renders
// per-row key strings. The output schema is left ++ right; the planner
// projects away the duplicated join attributes afterwards (the paper assumes
// join attributes share names across tables).
type HashJoin struct {
	Left, Right        Operator
	LeftKeys, RightKey []int
	Mem                *fault.Governor // optional: charge the build side, degrade to grace mode on denial
	SortBudget         int             // grace-mode sort budget (tuples); 0 = storage.DefaultSortBudget
	TmpDir             string          // grace-mode spill dir; "" = os.TempDir()
	out                *table.Schema
	built              *table.TupleMap
	grace              *MergeJoin    // non-nil after a memory-pressured Open
	graced             bool          // sticky across Close: the last Open degraded
	in                 []table.Tuple // reused probe batch
	inN, inPos         int
	cur                table.Group // matches for the current probe tuple
	curLen             int         // 1+len(cur.Rest), 0 when no match
	curLeft            table.Tuple
	curPos             int
	slots              slotBufs
	one                [1]table.Tuple
}

// NewHashJoin joins left and right on pairwise-equal key columns.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("engine: hash join key arity mismatch")
	}
	return &HashJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKey: rightKeys,
		out: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema returns left ++ right.
func (j *HashJoin) Schema() *table.Schema { return j.out }

// Open builds the hash table over the right input. With a governor set, the
// build side is charged as it grows; a denied reservation degrades the join
// to grace (sort-merge) mode instead of failing — see gracejoin.go. A failed
// Open leaves the join fully closed (children included): collectors do not
// Close a tree whose Open errored, so every operator must release what it
// acquired — child scanners' pinned pages, a grace sorter's spill runs —
// before surfacing the error (Close is idempotent throughout the engine,
// so re-closing an input some error path already closed is safe).
func (j *HashJoin) Open() error {
	j.grace = nil
	j.graced = false
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	var built *table.TupleMap
	var err error
	if j.Mem != nil {
		var buffered []table.Tuple
		var pressured bool
		built, buffered, pressured, err = buildGoverned(j.Right, j.RightKey, j.Mem)
		if err == nil && pressured {
			if gerr := j.openGrace(buffered); gerr != nil {
				j.Left.Close()
				j.Right.Close()
				return gerr
			}
			return nil
		}
	} else {
		built, err = buildSide(j.Right, j.RightKey)
	}
	if err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	j.built = built
	j.cur = table.Group{}
	j.curLen, j.curPos = 0, 0
	j.inN, j.inPos = 0, 0
	return nil
}

// Next yields the next joined tuple.
func (j *HashJoin) Next() (table.Tuple, bool, error) {
	n, err := j.NextBatch(j.one[:])
	if err != nil || n == 0 {
		return nil, false, err
	}
	return j.one[0], true, nil
}

// NextBatch fills dst with joined tuples built in reused per-slot buffers.
// The current probe tuple references the join's input batch, which is only
// refilled once its matches are exhausted, so no probe-side clone is needed.
func (j *HashJoin) NextBatch(dst []table.Tuple) (int, error) {
	if j.grace != nil {
		return j.grace.NextBatch(dst)
	}
	n := 0
	for n < len(dst) {
		if j.curPos < j.curLen {
			r := j.cur.First
			if j.curPos > 0 {
				r = j.cur.Rest[j.curPos-1]
			}
			j.curPos++
			buf := j.slots.slot(n, j.out.Len())
			copy(buf, j.curLeft)
			copy(buf[len(j.curLeft):], r)
			dst[n] = buf
			n++
			continue
		}
		if j.inPos >= j.inN {
			j.in = batchScratch(j.in, BatchSize)
			k, err := NextBatch(j.Left, j.in)
			if err != nil {
				return 0, err
			}
			if k == 0 {
				return n, nil
			}
			j.inN, j.inPos = k, 0
		}
		//sproutvet:allow batchalias probe cursor lives only until j.in is refilled, and its matches drain first (see NextBatch doc)
		j.curLeft = j.in[j.inPos]
		j.inPos++
		g, ok := j.built.Lookup(j.curLeft, j.LeftKeys)
		j.cur = g
		j.curLen = 0
		if ok {
			j.curLen = 1 + len(g.Rest)
		}
		j.curPos = 0
	}
	return n, nil
}

// Close closes both inputs and drops the hash table. In grace mode the
// merge join owns the left input (via its wrapping Sort) and the sorted
// right stream; the drained right input is closed here.
func (j *HashJoin) Close() error {
	j.built = nil
	if j.grace != nil {
		g := j.grace
		j.grace = nil
		errG := g.Close()
		errR := j.Right.Close()
		if errG != nil {
			return errG
		}
		return errR
	}
	errL := j.Left.Close()
	errR := j.Right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

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

	l         table.Tuple
	lOK       bool
	r         table.Tuple
	rOK       bool
	block     []table.Tuple // buffered right block with equal keys
	blockKey  table.Tuple
	blockPos  int
	inBlock   bool
	endOfLeft bool
	slots     slotBufs
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

// Open opens both inputs and primes the cursors. Like every engine Open, a
// failure leaves the join fully closed, children included.
func (j *MergeJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	var err error
	if err = j.advanceLeft(); err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	j.r, j.rOK, err = j.Right.Next()
	if err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	if j.rOK {
		j.r = j.r.Clone()
	}
	j.block = nil
	j.inBlock = false
	return nil
}

func (j *MergeJoin) advanceLeft() error {
	t, ok, err := j.Left.Next()
	if err != nil {
		return err
	}
	j.lOK = ok
	if ok {
		j.l = t.Clone()
	}
	return nil
}

func (j *MergeJoin) cmpKeys(l, r table.Tuple) int {
	for i := range j.LeftKeys {
		if c := table.Compare(l[j.LeftKeys[i]], r[j.RightKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// cmpRightKeys compares two right-side tuples; the block key is a right
// tuple, so indexing it with LeftKeys would read the wrong columns (or past
// the end) whenever the two key layouts differ.
func (j *MergeJoin) cmpRightKeys(a, b table.Tuple) int {
	for i := range j.RightKeys {
		if c := table.Compare(a[j.RightKeys[i]], b[j.RightKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// Next yields the next joined tuple.
func (j *MergeJoin) Next() (table.Tuple, bool, error) { return j.next(0) }

// next emits the next joined tuple into slot buffer i.
func (j *MergeJoin) next(slot int) (table.Tuple, bool, error) {
	for {
		if j.inBlock {
			if j.blockPos < len(j.block) {
				r := j.block[j.blockPos]
				j.blockPos++
				return j.combine(slot, j.l, r), true, nil
			}
			// Done pairing current left tuple with the block; advance left.
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			if j.lOK && j.cmpKeys(j.l, j.blockKey) == 0 {
				j.blockPos = 0
				continue
			}
			j.inBlock = false
			j.block = nil
		}
		if !j.lOK || !j.rOK {
			return nil, false, nil
		}
		c := j.cmpKeys(j.l, j.r)
		switch {
		case c < 0:
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
		case c > 0:
			t, ok, err := j.Right.Next()
			if err != nil {
				return nil, false, err
			}
			j.rOK = ok
			if ok {
				j.r = t.Clone()
			}
		default:
			// Buffer the whole right block with this key.
			j.block = j.block[:0]
			j.blockKey = j.r.Clone()
			for j.rOK && j.cmpRightKeys(j.blockKey, j.r) == 0 {
				j.block = append(j.block, j.r)
				t, ok, err := j.Right.Next()
				if err != nil {
					return nil, false, err
				}
				j.rOK = ok
				if ok {
					j.r = t.Clone()
				}
			}
			j.blockPos = 0
			j.inBlock = true
		}
	}
}

// NextBatch emits joined tuples into reused per-slot buffers.
func (j *MergeJoin) NextBatch(dst []table.Tuple) (int, error) {
	return fillBatch(dst, j.next)
}

func (j *MergeJoin) combine(slot int, l, r table.Tuple) table.Tuple {
	buf := j.slots.slot(slot, j.out.Len())
	copy(buf, l)
	copy(buf[len(l):], r)
	return buf
}

// Close closes both inputs.
func (j *MergeJoin) Close() error {
	errL := j.Left.Close()
	errR := j.Right.Close()
	if errL != nil {
		return errL
	}
	return errR
}
