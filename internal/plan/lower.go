package plan

import (
	"fmt"
	"time"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/signature"
	"repro/internal/table"
)

// This file lowers the logical plan IR (internal/logical) to the physical
// engine and runs it — the single execution path shared by every plan
// style. Scan/select/project/join subtrees become pipelined engine
// operators (partition-parallel under a multi-worker pool); confidence
// placement points materialize their input and run the appropriate
// algorithm: eager sort+scan aggregation steps, the final sort+scan
// operator, OBDD compilation, d-tree decomposition, Monte Carlo
// estimation, or the OBDD → d-tree → Monte Carlo fallback ladder.

// lowerState carries one run's execution bookkeeping through the lowering.
type lowerState struct {
	ex   exec
	c    *Catalog
	q    *query.Query
	spec Spec

	// cur is the runtime running signature of a staged plan: every eager
	// aggregation replaces the operator it applied by its representative
	// table, exactly as §V.B prescribes.
	cur signature.Sig

	probTime        time.Duration
	scans           int
	applied         []string
	maxIntermediate int64

	// colExec records whether any materialized subtree ran fully columnar;
	// colBatches/rowBatches accumulate the per-operator batch counters of
	// traced runs (count() wrappers) for Stats attribution.
	colExec    bool
	colBatches int64
	rowBatches int64

	// flushes are deferred trace-attribute writers for Counted wrappers
	// threaded into the pipeline: counters are only final once the
	// pipeline has drained, so materialize runs them after CollectCtx.
	flushes []func()
}

func (st *lowerState) track(rel *table.Relation) {
	if n := int64(rel.Len()); n > st.maxIntermediate {
		st.maxIntermediate = n
	}
}

// count wraps op so the rows and batches drained from it land on sp once
// the enclosing materialize finishes. A nil span returns op untouched —
// the untraced path pays nothing.
func (st *lowerState) count(op engine.Operator, sp *obs.Span) engine.Operator {
	if sp == nil {
		return op
	}
	s := &engine.OpStats{}
	st.flushes = append(st.flushes, func() {
		sp.Int("rows_out", s.Rows)
		sp.LooseInt("batches", s.Batches)
		if s.ColBatches > 0 {
			sp.LooseInt("col_batches", s.ColBatches)
		}
		st.rowBatches += s.Batches
		st.colBatches += s.ColBatches
	})
	return engine.Counted(op, s)
}

// flush runs the trace-attribute writers appended since mark — the
// wrappers belonging to the subtree a materialize call just drained.
// Writers below the mark belong to enclosing, still-undrained pipelines
// (a sibling of a nested eager placement point) and must wait for theirs.
func (st *lowerState) flush(mark int) {
	for _, f := range st.flushes[mark:] {
		f()
	}
	st.flushes = st.flushes[:mark]
}

// scanRefUnder returns the relation occurrence scanned at the bottom of a
// leaf pipeline (Project → [Select] → Scan).
func scanRefUnder(n logical.Node) (query.RelRef, bool) {
	for {
		switch x := n.(type) {
		case *logical.Scan:
			return x.Ref, true
		case *logical.Select:
			n = x.Input
		case *logical.Project:
			n = x.Input
		default:
			return query.RelRef{}, false
		}
	}
}

// joinedUnder collects the occurrence names scanned in a subtree — the
// "joined set" driving the post-join projection rule.
func joinedUnder(n logical.Node) map[string]bool {
	joined := make(map[string]bool)
	var walk func(logical.Node)
	walk = func(n logical.Node) {
		if s, ok := n.(*logical.Scan); ok {
			joined[s.Ref.Name] = true
		}
		for _, in := range n.Inputs() {
			walk(in)
		}
	}
	walk(n)
	return joined
}

// operator lowers a pipelined subtree to one engine operator, opening trace
// spans under sp (nil when tracing is off — every span call then no-ops).
// Confidence placement points inside the subtree materialize and re-enter
// the pipeline as in-memory scans.
func (st *lowerState) operator(n logical.Node, sp *obs.Span) (engine.Operator, error) {
	switch x := n.(type) {
	case *logical.Project:
		if j, ok := x.Input.(*logical.Join); ok {
			jsp := sp.Child("join")
			left, err := st.operator(j.Left, jsp)
			if err != nil {
				return nil, err
			}
			right, err := st.operator(j.Right, jsp)
			if err != nil {
				return nil, err
			}
			op, governed, err := joinPipeline(st.ex, st.q, left, right, joinedUnder(x), jsp)
			if err != nil {
				return nil, err
			}
			if jsp != nil && governed != nil {
				st.flushes = append(st.flushes, func() {
					if governed.GraceMode() {
						jsp.LooseStr("grace", "true")
					}
				})
			}
			return st.count(op, jsp), nil
		}
		ref, ok := scanRefUnder(x)
		if !ok {
			return nil, fmt.Errorf("plan: unexpected logical shape under %s", x.Label())
		}
		ssp := sp.Child("scan " + ref.Name)
		ssp.Int("base_rows", int64(st.c.Rows(ref.Base)))
		op, err := leafPipeline(st.ex, st.c, st.q, ref, st.spec.RowExec)
		if err != nil {
			return nil, err
		}
		return st.count(op, ssp), nil
	case *logical.Conf:
		rel, err := st.materializeConf(x, sp)
		if err != nil {
			return nil, err
		}
		return engine.NewMemScan(rel), nil
	default:
		return nil, fmt.Errorf("plan: cannot lower logical node %T", n)
	}
}

// materialize runs a subtree to a materialized relation.
func (st *lowerState) materialize(n logical.Node, sp *obs.Span) (*table.Relation, error) {
	if cf, ok := n.(*logical.Conf); ok && !cf.Final {
		return st.materializeConf(cf, sp)
	}
	mark := len(st.flushes)
	op, err := st.operator(n, sp)
	if err != nil {
		return nil, err
	}
	var rel *table.Relation
	if st.spec.RowExec {
		rel, err = engine.CollectCtx(st.ex.ctx, op)
	} else {
		// The columnar plug-in point: every pipeline the planner builds
		// lowers to column batches (anything that did not would take the
		// row path) — identical tuples either way.
		var columnar bool
		rel, columnar, err = engine.CollectCtxVec(st.ex.ctx, op)
		st.colExec = st.colExec || columnar
	}
	if err != nil {
		return nil, err
	}
	st.flush(mark)
	st.track(rel)
	return rel, nil
}

// materializeConf materializes an eager placement point: the input
// intermediate, with each scheduled probability-computation operator
// applied as sort+scan passes and the running signature updated with the
// operator's representative.
func (st *lowerState) materializeConf(cf *logical.Conf, sp *obs.Span) (*table.Relation, error) {
	rel, err := st.materialize(cf.Input, sp)
	if err != nil {
		return nil, err
	}
	for _, op := range cf.Ops {
		pt0 := statsNow()
		var cstats conf.Stats
		next, rep, err := conf.AggregateStats(rel, op, st.spec.Conf, &cstats)
		if err != nil {
			return nil, err
		}
		d := statsSince(pt0)
		st.probTime += d
		st.scans += cstats.Scans
		csp := sp.Child("conf[" + op.String() + "]")
		csp.Int("rows_in", int64(rel.Len())).Int("rows_out", int64(next.Len()))
		annotateSorts(csp, &cstats)
		csp.SetDur(d)
		rel = next
		st.cur = Replace(st.cur, op, signature.Table(rep))
		st.applied = append(st.applied, "["+op.String()+"]")
	}
	return rel, nil
}

// annotateSorts records what a sort+scan computation — an eager step or the
// top operator — did: scans and sorts are structural, the spill volume
// moves with the sort budget and the partitioning and stays loose.
func annotateSorts(sp *obs.Span, cs *conf.Stats) {
	sp.Int("scans", int64(cs.Scans)).Int("sorts", int64(cs.Sorts))
	sp.LooseInt("spilled_runs", int64(cs.SpilledRuns)).LooseInt("spill_bytes", cs.SpillBytes)
}

// runLogical executes a built logical plan.
func runLogical(ex exec, c *Catalog, q *query.Query, b *built, spec Spec) (*Result, error) {
	if b.lp.Mode == logical.ModeProb {
		return lowerSafe(ex, c, q, b, spec)
	}
	root, ok := b.lp.Root.(*logical.Conf)
	if !ok || !root.Final {
		return nil, fmt.Errorf("plan: logical plan for %s lacks a final confidence point", q.Name)
	}
	st := &lowerState{ex: ex, c: c, q: q, spec: spec, cur: b.sig}
	answerSp := ex.span("answer: " + describeOrder(b.order))
	t0 := statsNow()
	answer, err := st.materialize(root.Input, answerSp)
	if err != nil {
		return nil, err
	}
	tupleTime := statsSince(t0) - st.probTime
	answerSp.Int("rows", int64(answer.Len()))
	if st.colExec {
		answerSp.LooseStr("exec", "columnar")
	} else {
		answerSp.LooseStr("exec", "row")
	}
	answerSp.SetDur(tupleTime)

	var res *Result
	switch root.Alg {
	case logical.AlgSortScan:
		res, err = st.finishSortScan(b, answer, tupleTime)
	case logical.AlgOBDD:
		res, err = finishTier(ex, &obddTier, q, b, spec, answer, tupleTime)
	case logical.AlgDTree:
		res, err = finishTier(ex, &dtreeTier, q, b, spec, answer, tupleTime)
	case logical.AlgMC:
		res, err = finishTier(ex, &mcTier, q, b, spec, answer, tupleTime)
	case logical.AlgLadder:
		res, err = finishFallbackChain(ex, q, b, spec, answer, tupleTime)
	default:
		return nil, fmt.Errorf("plan: unknown confidence algorithm %v", root.Alg)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.ColBatches = st.colBatches
	res.Stats.RowBatches = st.rowBatches
	return res, nil
}

// finishSortScan runs the top sort+scan confidence operator over the
// materialized intermediate: the full operator when aggregation remains,
// the bare-table extraction when the eager stages already reduced the
// signature to a single representative.
func (st *lowerState) finishSortScan(b *built, rel *table.Relation, tupleTime time.Duration) (*Result, error) {
	sp := st.ex.span("conf[sort+scan]")
	pt0 := statsNow()
	var out *table.Relation
	var err error
	if bare, ok := st.cur.(signature.Table); ok {
		out, err = conf.FinalizeBare(rel, string(bare))
		if err != nil {
			return nil, err
		}
		sp.Str("final", "bare-table extraction")
	} else {
		var cstats *conf.Stats
		out, cstats, err = conf.ComputeStats(rel, st.cur, st.spec.Conf)
		if err != nil {
			return nil, err
		}
		st.scans += cstats.Scans
		annotateSorts(sp, cstats)
	}
	d := statsSince(pt0)
	sp.Str("sig", st.cur.String()).Int("rows_in", int64(rel.Len())).Int("distinct", int64(out.Len()))
	sp.SetDur(d)
	st.probTime += d
	out, err = normalizeAnswer(out, st.q)
	if err != nil {
		return nil, err
	}
	planLine := fmt.Sprintf("lazy: %s; conf[%s] on top", describeOrder(b.order), st.cur)
	if b.eagerStages > 0 {
		planLine = fmt.Sprintf("%s: %s; ops %v; top conf[%s]", b.lp.Style, describeOrder(b.order), st.applied, st.cur)
	}
	return &Result{
		Rows: out,
		Stats: Stats{
			Plan:           planLine,
			Signature:      b.sig.String(),
			TupleTime:      tupleTime,
			ProbTime:       st.probTime,
			AnswerTuples:   st.maxIntermediate,
			DistinctTuples: int64(out.Len()),
			Scans:          st.scans,
		},
	}, nil
}
