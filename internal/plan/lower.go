package plan

import (
	"fmt"
	"math"
	"slices"
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
// operators, streaming at every worker count; confidence placement points
// consume their input and run the appropriate algorithm.
// Every placement takes its input as a stream (conf.Source): the pipeline's
// batches go straight into the consumer and the intermediate is never
// materialized — into run generation for a sort+scan placement (an eager
// aggregation step, an independent projection π^ind of a MystiQ safe plan,
// the final operator), into lineage collection for the lineage algorithms
// (OBDD compilation, d-tree decomposition, Monte Carlo estimation, the
// OBDD → d-tree → Monte Carlo fallback ladder). The plan mode decides only
// which uncertainty columns ride along: a V/P pair per source under
// ModeLineage, P alone under ModeProb (MystiQ works on probabilistic tables
// without variable columns, §V).

// lowerState carries one run's execution bookkeeping through the lowering.
type lowerState struct {
	ex   exec
	c    *Catalog
	q    *query.Query
	spec Spec
	mode logical.Mode

	probTime        time.Duration
	pullTime        time.Duration // time inside streamed pipelines' pulls: tuple time
	sorts           conf.Stats    // Scans, Sorts, SpilledRuns, SpillBytes over every sort+scan and π^ind placement
	applied         []string
	maxIntermediate int64

	graceJoins int64 // governed joins that fell back to sort-merge (grace) mode

	// flushes are deferred readers of operators threaded into the pipeline
	// — trace-attribute writers for ColCounted wrappers, the governed joins'
	// grace-mode check: their counters are only final once the pipeline has
	// drained, so a source's feed runs them after the drain.
	flushes []func()
}

// addSorts folds one sort+scan placement's work into the run's totals.
func (st *lowerState) addSorts(cs *conf.Stats) {
	st.sorts.Scans += cs.Scans
	st.sorts.Sorts += cs.Sorts
	st.sorts.SpilledRuns += cs.SpilledRuns
	st.sorts.SpillBytes += cs.SpillBytes
}

// count wraps op so the rows and batches drained from it land on sp once
// the enclosing pipeline has drained. A nil span returns op untouched —
// the untraced path pays nothing.
func (st *lowerState) count(op engine.ColOperator, sp *obs.Span) engine.ColOperator {
	if sp == nil {
		return op
	}
	s := &engine.OpStats{}
	st.flushes = append(st.flushes, func() {
		sp.Int("rows_out", s.Rows)
		sp.LooseInt("batches", s.Batches)
	})
	return &engine.ColCounted{In: op, S: s}
}

// flush runs the trace-attribute writers appended since mark — the
// wrappers belonging to the subtree a source's feed just drained.
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

// operator lowers a pipelined subtree to one engine operator, opening trace
// spans under sp (nil when tracing is off — every span call then no-ops).
// Confidence placement points inside the subtree run where they stand and
// re-enter the pipeline as scans of their output's column chunks.
func (st *lowerState) operator(n logical.Node, sp *obs.Span) (engine.ColOperator, error) {
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
			op, governed, err := joinPipeline(st.ex, left, right, x.Attrs, jsp)
			if err != nil {
				return nil, err
			}
			if governed != nil {
				st.flushes = append(st.flushes, func() {
					if governed.GraceMode() {
						st.graceJoins++
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
		op, err := leafPipeline(st.c, st.q, ref, x.Attrs, st.mode)
		if err != nil {
			return nil, err
		}
		return st.count(op, ssp), nil
	case *logical.Conf:
		src, err := st.applyConf(x, sp)
		if err != nil {
			return nil, err
		}
		chunks, err := src.Chunks(st.ex.ctx, st.spec.Conf.Scope)
		if err != nil {
			return nil, err
		}
		return &engine.ColChunkScan{S: src.Schema, Chunks: chunks}, nil
	default:
		return nil, fmt.Errorf("plan: cannot lower logical node %T", n)
	}
}

// pullTimer sits between a streamed pipeline and the sink it feeds, timing
// the pulls at batch granularity — two clock reads per batch: the time
// between one hand-off returning and the next arriving was spent inside the
// pipeline (Open and NextColBatch) and is tuple time; the time inside the
// sink belongs to whoever consumes the rows.
type pullTimer struct {
	sink engine.Sink
	last time.Time
	pull time.Duration
	rows int64
}

func (p *pullTimer) AddBatch(b *table.ColBatch) error {
	p.pull += statsNow().Sub(p.last)
	p.rows += int64(b.Rows())
	err := p.sink.AddBatch(b)
	p.last = statsNow()
	return err
}

// source lowers a subtree to a one-shot stream of its rows: the pipeline
// runs when the source is consumed, batch by batch into the consumer's
// sink, and not before. An eager placement point at the root of the
// subtree is applied here and its output is the source.
func (st *lowerState) source(n logical.Node, sp *obs.Span) (*conf.Source, error) {
	if cf, ok := n.(*logical.Conf); ok && !cf.Final {
		return st.applyConf(cf, sp)
	}
	mark := len(st.flushes)
	op, err := st.operator(n, sp)
	if err != nil {
		return nil, err
	}
	return conf.NewSource(op.Schema(), func(sink engine.Sink) error {
		timed := &pullTimer{sink: sink, last: statsNow()}
		err := engine.StreamCtx(st.ex.ctx, op, timed)
		st.pullTime += timed.pull + statsSince(timed.last)
		if err != nil {
			return err
		}
		st.flush(mark)
		st.maxIntermediate = max(st.maxIntermediate, timed.rows)
		return nil
	}), nil
}

// applyConf runs a confidence placement below the top: an eager point
// applies each scheduled probability-computation operator as sort+scan
// passes — the first one streaming the input intermediate; the signature
// left for the top is the one buildStaged computed from the same schedule —
// and an independent projection is one such pass with MystiQ's per-group
// combine.
func (st *lowerState) applyConf(cf *logical.Conf, sp *obs.Span) (*conf.Source, error) {
	src, err := st.source(cf.Input, sp)
	if err != nil {
		return nil, err
	}
	if cf.Alg == logical.AlgIndProject {
		return st.placement(sp.Child(cf.Label()), src, func(cs *conf.Stats) (*conf.Source, error) {
			return conf.IndProject(src, cf.Keep, st.spec.Conf, cs)
		})
	}
	for _, op := range cf.Ops {
		src, err = st.placement(sp.Child("conf["+op.String()+"]"), src, func(cs *conf.Stats) (*conf.Source, error) {
			next, _, err := conf.AggregateFrom(src, op, st.spec.Conf, cs)
			return next, err
		})
		if err != nil {
			return nil, err
		}
		st.applied = append(st.applied, "["+op.String()+"]")
	}
	return src, nil
}

// placement runs one confidence computation over src and accounts for it:
// the time it spent pulling the input pipeline is tuple time, the rest is
// probability time; its sorts join the run's totals and csp records what it
// did.
func (st *lowerState) placement(csp *obs.Span, src *conf.Source, run func(*conf.Stats) (*conf.Source, error)) (*conf.Source, error) {
	pt0, pull0 := statsNow(), st.pullTime
	var cstats conf.Stats
	next, err := run(&cstats)
	if err != nil {
		return nil, err
	}
	d := statsSince(pt0) - (st.pullTime - pull0)
	st.probTime += d
	st.addSorts(&cstats)
	csp.Int("rows_in", src.Rows()).Int("rows_out", next.Rows())
	annotateSorts(csp, &cstats)
	csp.SetDur(d)
	return next, nil
}

// annotateSorts records what a sort+scan computation — an eager step, an
// independent projection or the top operator — did: scans and sorts are structural, the spill volume
// moves with the sort budget and the partitioning and stays loose.
func annotateSorts(sp *obs.Span, cs *conf.Stats) {
	sp.Int("scans", int64(cs.Scans)).Int("sorts", int64(cs.Sorts))
	sp.LooseInt("spilled_runs", int64(cs.SpilledRuns)).LooseInt("spill_bytes", cs.SpillBytes)
}

// runLogical executes a built logical plan.
func runLogical(ex exec, c *Catalog, q *query.Query, b *built, spec Spec) (*Result, error) {
	root, ok := b.lp.Root.(*logical.Conf)
	if !ok || !root.Final {
		return nil, fmt.Errorf("plan: logical plan for %s lacks a final confidence point", q.Name)
	}
	st := &lowerState{ex: ex, c: c, q: q, spec: spec, mode: b.lp.Mode}
	answerSp := ex.span("answer: " + describeOrder(b.order))
	t0 := statsNow()
	src, err := st.source(root.Input, answerSp)
	if err != nil {
		return nil, err
	}
	var res *Result
	switch root.Alg {
	case logical.AlgSortScan, logical.AlgIndProject:
		res, err = st.finishScanned(b, root, src, answerSp, t0)
	case logical.AlgOBDD:
		res, err = st.finishTier(&obddTier, b, src, answerSp, t0)
	case logical.AlgDTree:
		res, err = st.finishTier(&dtreeTier, b, src, answerSp, t0)
	case logical.AlgMC:
		res, err = st.finishTier(&mcTier, b, src, answerSp, t0)
	case logical.AlgLadder:
		res, err = st.finishFallbackChain(b, src, answerSp, t0)
	default:
		return nil, fmt.Errorf("plan: unknown confidence algorithm %v", root.Alg)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.GraceJoins = st.graceJoins
	return res, nil
}

// annotateAnswer completes the answer span once the answer pipeline has
// drained.
func (st *lowerState) annotateAnswer(sp *obs.Span, rows int64, tupleTime time.Duration) {
	sp.Int("rows", rows)
	sp.SetDur(tupleTime)
}

// finishScanned runs the top confidence computation of a plan whose
// confidences come from sort+scan passes — the sort+scan operator, or the
// final independent projection of a MystiQ safe plan — over the streamed
// intermediate and assembles the result. t0 is when the run started
// lowering: what the wall since then does not owe to confidence computation
// — the lowering, nested pipelines, and the top placement's pulls of its
// input — is tuple time.
func (st *lowerState) finishScanned(b *built, root *logical.Conf, src *conf.Source, answerSp *obs.Span, t0 time.Time) (*Result, error) {
	var out *table.Relation
	var planLine, sigLine string
	var err error
	if root.Alg == logical.AlgIndProject {
		out, err = st.finalIndProject(root, src)
		planLine, sigLine = fmt.Sprintf("mystiq safe plan over tree %s", b.tree), "(safe plan; no signature)"
	} else {
		out, err = st.topSortScan(src, root.Sig)
		planLine, sigLine = fmt.Sprintf("lazy: %s; conf[%s] on top", describeOrder(b.order), root.Sig), b.sig.String()
		if b.eagerStages > 0 {
			planLine = fmt.Sprintf("%s: %s; ops %v; top conf[%s]", b.lp.Style, describeOrder(b.order), st.applied, root.Sig)
		}
	}
	if err != nil {
		return nil, err
	}
	tupleTime := statsSince(t0) - st.probTime
	st.annotateAnswer(answerSp, src.Rows(), tupleTime)
	out, err = normalizeAnswer(out, st.q)
	if err != nil {
		return nil, err
	}
	return &Result{
		Rows: out,
		Stats: Stats{
			Plan:           planLine,
			Signature:      sigLine,
			TupleTime:      tupleTime,
			ProbTime:       st.probTime,
			AnswerTuples:   st.maxIntermediate,
			DistinctTuples: int64(out.Len()),
			Scans:          st.sorts.Scans,
			Sorts:          st.sorts.Sorts,
			SpilledRuns:    st.sorts.SpilledRuns,
			SpillBytes:     st.sorts.SpillBytes,
		},
	}, nil
}

// topSortScan is the top sort+scan confidence operator over the signature
// left after the eager stages: the full operator when aggregation remains,
// the bare-table extraction when the eager stages already reduced it to a
// single representative.
func (st *lowerState) topSortScan(src *conf.Source, sig signature.Sig) (*table.Relation, error) {
	sp := st.ex.span("conf[sort+scan]")
	pt0, pull0 := statsNow(), st.pullTime
	var out *table.Relation
	var err error
	if bare, ok := sig.(signature.Table); ok {
		out, err = conf.FinalizeBareFrom(src, string(bare), st.spec.Conf)
		if err != nil {
			return nil, err
		}
		sp.Str("final", "bare-table extraction")
	} else {
		var cstats *conf.Stats
		out, cstats, err = conf.ComputeFrom(src, sig, st.spec.Conf)
		if err != nil {
			return nil, err
		}
		st.addSorts(cstats)
		annotateSorts(sp, cstats)
	}
	d := statsSince(pt0) - (st.pullTime - pull0)
	st.probTime += d
	sp.Str("sig", sig.String()).Int("rows_in", src.Rows()).Int("distinct", int64(out.Len()))
	sp.SetDur(d)
	return out, nil
}

// finalIndProject is a safe plan's top placement: the independent
// projection onto the head, whose probability column is the confidence.
// MystiQ's aggregate fails at runtime on groups of many near-certain events
// (log-sum underflow) — surfaced as an error, as in §VII.
func (st *lowerState) finalIndProject(root *logical.Conf, src *conf.Source) (*table.Relation, error) {
	top, err := st.placement(st.ex.span(root.Label()), src, func(cs *conf.Stats) (*conf.Source, error) {
		return conf.IndProject(src, root.Keep, st.spec.Conf, cs)
	})
	if err != nil {
		return nil, err
	}
	chunks, err := top.Chunks(st.ex.ctx, st.spec.Conf.Scope)
	if err != nil {
		return nil, err
	}
	pi := top.Schema.Len() - 1
	for _, c := range chunks {
		for _, p := range c.Cols[pi].Floats[:c.N] {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("plan: MystiQ runtime error: probability aggregate under/overflowed (query %s)", st.q.Name)
			}
		}
	}
	rel, err := top.Relation(st.ex.ctx, st.spec.Conf.Scope)
	if err != nil {
		return nil, err
	}
	cols := slices.Clone(rel.Schema.Cols)
	cols[pi] = table.DataCol(conf.ConfCol, table.KindFloat)
	rel.Schema = table.NewSchema(cols...)
	return rel, nil
}
