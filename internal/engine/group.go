package engine

import "repro/internal/table"

// AggKind enumerates the aggregate functions needed by the paper's GRP
// statements (Fig. 5): min over variable columns (choosing a representative
// variable) and prob over probability columns (independent disjunction,
// 1-Π(1-p)).
type AggKind uint8

// Aggregate kinds.
const (
	AggMin AggKind = iota
	AggProbOr
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggMin:
		return "min"
	case AggProbOr:
		return "prob"
	default:
		return "?"
	}
}

// AggSpec computes one output column from the rows of a group.
type AggSpec struct {
	Kind AggKind
	Col  int          // input column aggregated
	Out  table.Column // output column descriptor
}

type aggState struct {
	min    table.Value
	hasMin bool
	compl  float64 // running Π(1-p) for prob
}

func (a *aggState) reset() {
	a.hasMin = false
	a.compl = 1
}

func (a *aggState) add(spec AggSpec, t table.Tuple) {
	switch spec.Kind {
	case AggMin:
		v := t[spec.Col]
		if !a.hasMin || table.Compare(v, a.min) < 0 {
			a.min = v
			a.hasMin = true
		}
	case AggProbOr:
		a.compl *= 1 - t[spec.Col].F
	}
}

func (a *aggState) result(spec AggSpec) table.Value {
	switch spec.Kind {
	case AggMin:
		if !a.hasMin {
			return table.Null()
		}
		return a.min
	case AggProbOr:
		return table.Float(1 - a.compl)
	default:
		return table.Null()
	}
}

// SortedGroupBy aggregates over an input that is already sorted (at least
// grouped) on the grouping columns: it emits one row per maximal run of
// equal group keys. This is the executable form of the paper's GRP[a; b]
// statement — `select distinct a, b from Q group by a` (Fig. 5) — and runs
// in a single scan, which is what makes eager plans and the multi-scan
// scheduler of §V.C work.
type SortedGroupBy struct {
	In      Operator
	GroupBy []int
	Aggs    []AggSpec
	out     *table.Schema
	states  []aggState
	in      Cursor
	curKey  table.Tuple // first tuple of the open group
	have    bool        // a group is open
	done    bool
}

// NewSortedGroupBy builds the operator. The output schema is the grouping
// columns (with their input metadata) followed by the aggregate columns.
func NewSortedGroupBy(in Operator, groupBy []int, aggs []AggSpec) *SortedGroupBy {
	is := in.Schema()
	cols := make([]table.Column, 0, len(groupBy)+len(aggs))
	for _, i := range groupBy {
		cols = append(cols, is.Cols[i])
	}
	for _, a := range aggs {
		cols = append(cols, a.Out)
	}
	return &SortedGroupBy{In: in, GroupBy: groupBy, Aggs: aggs, out: table.NewSchema(cols...)}
}

// Schema returns group columns followed by aggregate columns.
func (g *SortedGroupBy) Schema() *table.Schema { return g.out }

// Open opens the input and resets state.
func (g *SortedGroupBy) Open() error {
	g.states = make([]aggState, len(g.Aggs))
	g.have, g.done = false, false
	g.in.Reset(g.In)
	return g.In.Open()
}

// NextBatch emits one aggregated row per group. Emitted rows are freshly
// built, so they are stable.
func (g *SortedGroupBy) NextBatch(dst []table.Tuple) (int, error) {
	n := 0
	for n < len(dst) && !g.done {
		t, ok, err := g.in.Next()
		if err != nil {
			return 0, err
		}
		if ok && g.have && table.EqualOn(t, g.curKey, g.GroupBy) {
			for i := range g.Aggs {
				g.states[i].add(g.Aggs[i], t)
			}
			continue
		}
		// Group boundary or end of stream: emit the finished group, and
		// open the next one with t.
		if g.have {
			dst[n] = g.emit()
			n++
		}
		g.have, g.done = ok, !ok
		if ok {
			g.startGroup(t)
		}
	}
	return n, nil
}

// StableTuples: every emitted row is a fresh per-group tuple.
func (g *SortedGroupBy) StableTuples() bool { return true }

func (g *SortedGroupBy) startGroup(t table.Tuple) {
	g.curKey = g.in.Keep(t)
	for i := range g.states {
		g.states[i].reset()
		g.states[i].add(g.Aggs[i], t)
	}
}

func (g *SortedGroupBy) emit() table.Tuple {
	out := make(table.Tuple, 0, len(g.GroupBy)+len(g.Aggs))
	for _, i := range g.GroupBy {
		out = append(out, g.curKey[i])
	}
	for i := range g.Aggs {
		out = append(out, g.states[i].result(g.Aggs[i]))
	}
	return out
}

// Close closes the input.
func (g *SortedGroupBy) Close() error { return g.In.Close() }

// HashDistinct removes duplicate tuples (all columns) without requiring
// sorted input. Seen tuples are tracked in a hash-keyed TupleSet (FNV hash
// plus Compare-based collision chains), so recognizing a duplicate never
// allocates. The reference GRP sequence uses it to list distinct tuples.
type HashDistinct struct {
	In     Operator
	seen   *table.TupleSet
	all    []int
	stable bool
}

// NewHashDistinct wraps in.
func NewHashDistinct(in Operator) *HashDistinct { return &HashDistinct{In: in} }

// Schema returns the input schema.
func (d *HashDistinct) Schema() *table.Schema { return d.In.Schema() }

// Open opens the input and clears the seen set.
func (d *HashDistinct) Open() error {
	n := d.In.Schema().Len()
	d.all = make([]int, n)
	for i := range d.all {
		d.all[i] = i
	}
	d.seen = table.NewTupleSet(d.all, 0)
	d.stable = Stable(d.In)
	return d.In.Open()
}

// NextBatch pulls an input batch into dst and compacts the first-seen
// tuples in place.
func (d *HashDistinct) NextBatch(dst []table.Tuple) (int, error) {
	for {
		n, err := d.In.NextBatch(dst)
		if err != nil || n == 0 {
			return 0, err
		}
		k := 0
		for _, t := range dst[:n] {
			if _, added := d.seen.Add(t, !d.stable); added {
				dst[k] = t
				k++
			}
		}
		if k > 0 {
			return k, nil
		}
	}
}

// StableTuples: a distinct passes its input's tuples through untouched.
func (d *HashDistinct) StableTuples() bool { return Stable(d.In) }

// Close closes the input.
func (d *HashDistinct) Close() error {
	d.seen = nil
	return d.In.Close()
}

// GroupSorted is a convenience that sorts the input on the grouping columns
// and then applies SortedGroupBy — the generic "sort + one scan" shape of
// every aggregation step in the paper.
func GroupSorted(in Operator, groupBy []int, aggs []AggSpec) *SortedGroupBy {
	return NewSortedGroupBy(NewSort(in, SortSpec{Cols: groupBy}), groupBy, aggs)
}
