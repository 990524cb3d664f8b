package plan

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/obs"
	"repro/internal/table"
)

// This file runs the lineage tiers — OBDD (obdd.go), d-tree (dtree.go),
// Monte Carlo (mc.go) — through one contract. Answer tuples are computed
// exactly like the lazy plan and stream into lineage collection, once; a
// tier turns the lineage into confidences. Each tier is both a style in its
// own right (finishTier) and a rung of the exact styles' fallback ladder on
// queries without a hierarchical signature (finishFallbackChain): sort+scan
// → OBDD → d-tree → Monte Carlo. Adding a tier is one file defining its tier value
// plus one logical.Alg dispatching to it (lower.go).

// tier is one lineage tier as the planner sees it.
type tier struct {
	name string // span conf[<name>], ladder child span, plan-line prefix
	// effort names the tier's effort unit — the structural trace attribute
	// and the plan line's count: nodes, steps, samples.
	effort string
	verb   string // the plan line's "<verb> N answers"
	// budgetErr is the sentinel the tier refuses with in exact-only mode
	// (nil: it never refuses) and overrun the outcome the ladder records on
	// the refusing rung's span.
	budgetErr error
	overrun   string
	// ladderNote completes the plan line's "(fallback from <style>: no
	// hierarchical signature, ...)" when this rung produced the result.
	ladderNote string
	// run computes the confidences of every answer of l.
	run func(ex exec, spec *Spec, b *built, l *conf.Lineage, exactOnly bool) (*table.Relation, outcome, error)
}

// outcome is what a tier reports to the assembler.
type outcome struct {
	conf.LineageStats
	effort  int64  // nodes, steps or samples spent
	exact   int64  // answers resolved exactly
	stopped int64  // answers a deadline-watermark Stop cut short
	suffix  string // plan-line detail after "N exact"
	// stats carries the Stats fields only this tier fills in (Signature:
	// what drives the computation in place of a hierarchical signature);
	// annotate writes its structural trace attributes after the shared head.
	stats    Stats
	annotate func(sp *obs.Span)
}

// ladder is the fallback chain, in order; the last rung never refuses.
var ladder = []*tier{&obddTier, &dtreeTier, &mcTier}

// arm is the one place the compilation tiers get the run's degradation
// plumbing: the deadline-watermark Stop probe, and the governor's headroom
// as a cap on its effective budget (explicit, else the default) — under
// memory pressure the compilers stop earlier and report certified bounds.
func (ex exec) arm(o dtree.Options) dtree.Options {
	if ex.stop != nil {
		o.Stop = ex.stop
	}
	if ex.maxNodes > 0 && o.Budget() > ex.maxNodes {
		o.NodeBudget = ex.maxNodes
	}
	return o
}

// annotateLineage writes the lineage head every tier span (and the ladder
// span) starts with.
func annotateLineage(sp *obs.Span, s conf.LineageStats) {
	sp.Int("answers", s.OutputTuples).Int("clauses", s.Clauses).Int("vars", s.Vars).Int("dedup_rows", s.DupRows)
}

// collectLineage is the collection step every lineage plan starts with:
// the answer streams from src into the collector. The time collection took,
// net of the pulls of the answer pipeline (tuple time), goes on sp as its
// own attribute — it is part of the span's Dur, and of Stats.ProbTime — and
// into Stats.CollectTime; the answer span is then complete. t0 is when the
// run started lowering: what the wall since then does not owe to confidence
// computation is the tuple time it reports.
func (st *lowerState) collectLineage(sp, answerSp *obs.Span, src *conf.Source, t0 time.Time) (l *conf.Lineage, collect, tupleTime time.Duration, err error) {
	t1, pull0 := statsNow(), st.pullTime
	l, err = conf.CollectLineageFrom(st.ex.ctx, src)
	if err != nil {
		return nil, 0, 0, err
	}
	collect = statsSince(t1) - (st.pullTime - pull0)
	sp.LooseDur("collect", collect)
	tupleTime = statsSince(t0) - st.probTime - collect
	st.annotateAnswer(answerSp, l.Input, tupleTime)
	return l, collect, tupleTime, nil
}

// finishLineage runs one tier over the collected lineage and assembles the
// Result, annotating the tier's trace span (nil when tracing is off). t2 is
// when lineage collection, which took collect, ended, so Stats.ProbTime
// reports collection plus everything since — any refused rungs included.
// note annotates the plan line when the run is a fallback from an exact
// style.
func (st *lowerState) finishLineage(sp *obs.Span, t *tier, b *built, note string, l *conf.Lineage, exactOnly bool, tupleTime time.Duration, t2 time.Time, collect time.Duration) (*Result, error) {
	out, o, err := t.run(st.ex, &st.spec, b, l, exactOnly)
	if err != nil {
		return nil, err
	}
	probTime := collect + statsSince(t2)
	out, err = normalizeAnswer(out, st.q)
	if err != nil {
		return nil, err
	}
	annotateLineage(sp, o.LineageStats)
	sp.Int(t.effort, o.effort)
	o.annotate(sp)
	sp.SetDur(probTime)
	stats := o.stats
	stats.Plan = fmt.Sprintf("%s%s: %s; %s %d answers (%d clauses, %d %s, %d exact%s)",
		t.name, note, describeOrder(b.order), t.verb, o.OutputTuples, o.Clauses, o.effort, t.effort, o.exact, o.suffix)
	stats.TupleTime = tupleTime
	stats.ProbTime = probTime
	stats.CollectTime = collect
	stats.LineageClauses = o.Clauses
	stats.LineageDupRows = o.DupRows
	stats.AnswerTuples = l.Input
	stats.DistinctTuples = int64(out.Len())
	stats.Scans = 1 // the lineage-collection grouping pass
	if o.stopped > 0 {
		markDegraded(&stats, "deadline")
		sp.Int("deadline_stopped", o.stopped)
	}
	return &Result{Rows: out, Stats: stats}, nil
}

// finishTier is a lineage tier run as a style of its own over the streamed
// answer: certified bounds (or estimates) are a result, unless RequireExact
// forbids them. The lineage is released once the tier has returned, and
// with it every worker it ran on.
func (st *lowerState) finishTier(t *tier, b *built, src *conf.Source, answerSp *obs.Span, t0 time.Time) (*Result, error) {
	sp := st.ex.span("conf[" + t.name + "]")
	l, collect, tupleTime, err := st.collectLineage(sp, answerSp, src, t0)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	res, err := st.finishLineage(sp, t, b, "", l, st.spec.RequireExact, tupleTime, statsNow(), collect)
	if err != nil && errors.Is(err, t.budgetErr) {
		return nil, fmt.Errorf("plan: %s: %w (RequireExact forbids certified bounds)", st.q.Name, err)
	}
	return res, err
}

// finishFallbackChain is the exact styles' path on queries without a
// hierarchical signature: collect the streamed answer's lineage once, then
// try each rung exact-only — still exact, just computed by a different
// engine — recording a refusing rung's outcome on its span and falling to
// the next; the last rung, Monte Carlo, estimates instead of refusing. The
// lineage is released once the last rung run has returned.
func (st *lowerState) finishFallbackChain(b *built, src *conf.Source, answerSp *obs.Span, t0 time.Time) (*Result, error) {
	lsp := st.ex.span("conf[ladder]")
	l, collect, tupleTime, err := st.collectLineage(lsp, answerSp, src, t0)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	t2 := statsNow()
	annotateLineage(lsp, l.Stats())
	for _, t := range ladder {
		sp := lsp.Child(t.name)
		note := fmt.Sprintf(" (fallback from %s: no hierarchical signature, %s)", st.spec.Style, t.ladderNote)
		var res *Result
		res, err = st.finishLineage(sp, t, b, note, l, true, tupleTime, t2, collect)
		if err == nil || !errors.Is(err, t.budgetErr) {
			return res, err
		}
		sp.Str("outcome", t.overrun)
	}
	return nil, err
}

// compiled renders a compilation tier's run (OBDD, d-tree) as an outcome.
func compiled(out *table.Relation, ts *conf.TierStats, err error) (*table.Relation, outcome, error) {
	if err != nil {
		return nil, outcome{}, err
	}
	o := outcome{
		LineageStats: ts.LineageStats,
		effort:       ts.Nodes,
		exact:        ts.ExactAnswers,
		stopped:      ts.Stopped,
		stats:        Stats{MemoHits: ts.MemoHits, MemoMisses: ts.MemoMisses},
		annotate: func(sp *obs.Span) {
			sp.Int("memo_hits", ts.MemoHits).Int("memo_misses", ts.MemoMisses)
			sp.Int("exact", ts.ExactAnswers).Int("bounded", ts.Bounded)
			if ts.Bounded > 0 {
				sp.Float("max_width", ts.MaxWidth)
			}
			sp.LooseInt("hdr_recycled", ts.HdrRecycled)
		},
	}
	if ts.Bounded > 0 {
		o.suffix = fmt.Sprintf(", %d bounded to width ≤ %.3g", ts.Bounded, ts.MaxWidth)
		o.stats.Approximate = true
		o.stats.LowerBound = ts.LowerBound
		o.stats.UpperBound = ts.UpperBound
		o.stats.MaxWidth = ts.MaxWidth
	}
	return out, o, nil
}
