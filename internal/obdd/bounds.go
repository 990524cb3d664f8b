package obdd

import (
	"container/heap"
	"fmt"
	"slices"

	"repro/internal/prob"
)

// This file implements the anytime tier: when the ordered expansion of a
// lineage formula exceeds the node budget, Bounds performs *partial*
// Shannon expansion and maintains certified deterministic bounds on Pr[φ].
//
// The expansion state is a frontier of unexpanded residual formulas, each
// weighted by the probability mass of the partial assignment (the
// root-to-frontier path) that leads to it. For a residual clause set ψ with
// clause weights w(c) = Π_{v∈c} p(v):
//
//	max_c w(c)  ≤  Pr[ψ]  ≤  min(1, Σ_c w(c))
//
// (any single clause implies ψ; the union bound caps it). Summing
// mass-weighted cheap bounds over the frontier — plus the mass of paths
// already proven true — gives certified bounds on Pr[φ]. Expanding a
// frontier formula on its topmost variable replaces its contribution by its
// two cofactors'; both cheap bounds are exact under Shannon expansion
// splitting (Σ child weights reproduces the parent's, and the max-weight
// clause survives into at least one cofactor at no loss), so every step
// tightens [lo, hi] monotonically. Steps expand the frontier entry with the
// largest gap contribution first (deterministic tie-break on insertion
// order), so a larger budget always extends — never reorders — the
// expansion sequence: bounds tighten monotonically in the budget, too.

type boundsItem struct {
	cls  [][]int32 // residual clauses, each an ascending level list
	wts  []float64 // aligned residual clause weights Π p
	mass float64   // probability of the path reaching this residual
	lo   float64   // cheap lower bound on Pr[residual]
	hi   float64   // cheap upper bound on Pr[residual]
	seq  int       // insertion order, the deterministic tie-break
}

func (it *boundsItem) gap() float64 { return it.mass * (it.hi - it.lo) }

type boundsQueue []*boundsItem

func (q boundsQueue) Len() int { return len(q) }
func (q boundsQueue) Less(i, j int) bool {
	gi, gj := q[i].gap(), q[j].gap()
	if gi != gj {
		return gi > gj
	}
	return q[i].seq < q[j].seq
}
func (q boundsQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *boundsQueue) Push(x any)   { *q = append(*q, x.(*boundsItem)) }
func (q *boundsQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Bounds computes certified deterministic bounds on Pr[d] by partial
// Shannon expansion under the given order, stopping once hi-lo ≤
// o.TargetWidth, the expansion budget (o.NodeBudget) is spent, or the
// formula is fully expanded (in which case the result is exact). The result
// is a deterministic function of the inputs; a larger budget never loosens
// the bounds.
func Bounds(d *prob.DNF, a *prob.Assignment, order []prob.Var, o Options) (Result, error) {
	cls, err := lowerLevels(d, order)
	if err != nil {
		return Result{}, err
	}
	probs := make([]float64, len(order))
	for i, v := range order {
		probs[i] = a.P(v)
	}

	if len(cls) == 0 {
		return Result{Exact: true}, nil
	}
	for _, c := range cls {
		if len(c) == 0 {
			return Result{Exact: true, P: 1, Lo: 1, Hi: 1}, nil
		}
	}

	// sumDone accumulates exactly resolved probability mass: paths proven
	// true, and residuals whose cheap bounds coincide (e.g. single-clause
	// conjunctions) — those never enter the frontier.
	sumDone := 0.0
	accLo, accHi := 0.0, 0.0
	var frontier boundsQueue
	seq := 0
	add := func(cls [][]int32, wts []float64, mass float64) {
		it := &boundsItem{cls: cls, wts: wts, mass: mass, seq: seq}
		seq++
		var cb prob.WeightBound
		for _, w := range wts {
			cb.Add(w)
		}
		it.lo, it.hi = cb.Interval()
		if it.lo == it.hi {
			sumDone += mass * it.lo
			return
		}
		accLo += mass * it.lo
		accHi += mass * it.hi
		heap.Push(&frontier, it)
	}
	heap.Init(&frontier)
	add(cls, clauseWeights(cls, probs), 1)
	steps := 0
	budget := o.Budget()
	stopped := false

	for len(frontier) > 0 && steps < budget {
		if (sumDone+accHi)-(sumDone+accLo) <= o.TargetWidth {
			break
		}
		if o.Stop != nil && o.Stop() {
			stopped = true
			break
		}
		it := heap.Pop(&frontier).(*boundsItem)
		accLo -= it.mass * it.lo
		accHi -= it.mass * it.hi
		steps++

		top := it.cls[0][0]
		for _, c := range it.cls[1:] {
			top = min(top, c[0])
		}
		p := probs[top]
		pos, posW, posTrue := conditionWeighted(it.cls, it.wts, top, p)
		neg, negW := dropClauses(it.cls, it.wts, top)

		if posTrue {
			sumDone += it.mass * p
		} else if len(pos) > 0 {
			add(pos, posW, it.mass*p)
		}
		if len(neg) > 0 {
			add(neg, negW, it.mass*(1-p))
		}
	}

	lo, hi := sumDone+accLo, sumDone+accHi
	lo = clamp01(lo)
	hi = clamp01(hi)
	if hi < lo {
		hi = lo // floating accumulation can cross by an ulp
	}
	exact := len(frontier) == 0
	if exact {
		lo, hi = clamp01(sumDone), clamp01(sumDone)
	}
	return Result{Exact: exact, P: (lo + hi) / 2, Lo: lo, Hi: hi, Nodes: steps,
		Stopped: stopped && !exact}, nil
}

// lowerLevels rewrites clauses as ascending level lists of the order,
// dropping invalid variables; clauses keep the DNF's order.
func lowerLevels(d *prob.DNF, order []prob.Var) ([][]int32, error) {
	level := make(map[prob.Var]int32, len(order))
	for i, v := range order {
		level[v] = int32(i)
	}
	cls := make([][]int32, 0, len(d.Clauses))
	for _, c := range d.Clauses {
		lc := make([]int32, 0, len(c))
		for _, v := range c {
			if !v.Valid() {
				continue
			}
			lv, ok := level[v]
			if !ok {
				return nil, fmt.Errorf("obdd: variable %v of %s not in the order", v, c)
			}
			lc = append(lc, lv)
		}
		slices.Sort(lc)
		cls = append(cls, lc)
	}
	return cls, nil
}

// clauseWeights computes Π p over each clause's variables.
func clauseWeights(cls [][]int32, probs []float64) []float64 {
	wts := make([]float64, len(cls))
	for i, c := range cls {
		w := 1.0
		for _, l := range c {
			w *= probs[l]
		}
		wts[i] = w
	}
	return wts
}

// conditionWeighted builds the positive cofactor at level: clauses starting
// with the level lose it (weight rescaled by 1/p), the rest pass through.
// posTrue reports that some clause became empty — the cofactor is true.
func conditionWeighted(cls [][]int32, wts []float64, level int32, p float64) (pos [][]int32, posW []float64, posTrue bool) {
	pos = make([][]int32, 0, len(cls))
	posW = make([]float64, 0, len(cls))
	for i, c := range cls {
		if c[0] == level {
			if len(c) == 1 {
				return nil, nil, true
			}
			pos = append(pos, c[1:])
			posW = append(posW, wts[i]/p)
		} else {
			pos = append(pos, c)
			posW = append(posW, wts[i])
		}
	}
	return pos, posW, false
}

// dropClauses builds the negative cofactor at level: clauses containing the
// level vanish, the rest pass through.
func dropClauses(cls [][]int32, wts []float64, level int32) ([][]int32, []float64) {
	neg := make([][]int32, 0, len(cls))
	negW := make([]float64, 0, len(cls))
	for i, c := range cls {
		if c[0] != level {
			neg = append(neg, c)
			negW = append(negW, wts[i])
		}
	}
	return neg, negW
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
