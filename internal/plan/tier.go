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
// tier turns the lineage into confidences and reports one record,
// conf.TierStats, which becomes Stats.Lineage whole. Each tier is both a
// style in its own right (finishTier) and a rung of the exact styles'
// fallback ladder on queries without a hierarchical signature
// (finishFallbackChain): sort+scan → OBDD → d-tree → Monte Carlo. Adding a
// tier is one file defining its tier value plus one logical.Alg
// dispatching to it (lower.go).

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
	// signature is Stats.Signature: what drives the computation in place
	// of a hierarchical signature.
	signature func(b *built) string
	// run computes the confidences of every answer of l.
	run func(ex exec, spec *Spec, b *built, l *conf.Lineage, exactOnly bool) (*table.Relation, *conf.TierStats, error)
	// annotate writes the tier's structural trace attributes after the
	// shared head and the effort.
	annotate func(sp *obs.Span, s *conf.TierStats)
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
// style. The tier's record comes back with the result, and with a refusal
// (its budgetErr) too: the effort the refusing run spent.
func (st *lowerState) finishLineage(sp *obs.Span, t *tier, b *built, note string, l *conf.Lineage, exactOnly bool, tupleTime time.Duration, t2 time.Time, collect time.Duration) (*Result, *conf.TierStats, error) {
	out, rec, err := t.run(st.ex, &st.spec, b, l, exactOnly)
	if err != nil {
		return nil, rec, err
	}
	probTime := collect + statsSince(t2)
	out, err = normalizeAnswer(out, st.q)
	if err != nil {
		return nil, nil, err
	}
	annotateLineage(sp, rec.LineageStats)
	sp.Int(t.effort, rec.Effort())
	t.annotate(sp, rec)
	sp.SetDur(probTime)
	suffix := ""
	if rec.Bounded > 0 {
		suffix = fmt.Sprintf(", %d bounded to width ≤ %.3g", rec.Bounded, rec.MaxWidth)
	}
	stats := Stats{
		Plan: fmt.Sprintf("%s%s: %s; %s %d answers (%d clauses, %d %s, %d exact%s)",
			t.name, note, describeOrder(b.order), t.verb, rec.OutputTuples, rec.Clauses, rec.Effort(), t.effort, rec.ExactAnswers, suffix),
		Signature:      t.signature(b),
		TupleTime:      tupleTime,
		ProbTime:       probTime,
		CollectTime:    collect,
		AnswerTuples:   l.Input,
		DistinctTuples: int64(out.Len()),
		Scans:          1, // the lineage-collection grouping pass
		Approximate:    rec.Tier == conf.TierMC || rec.Bounded > 0,
		Lineage:        *rec,
	}
	if rec.Stopped > 0 {
		markDegraded(&stats, "deadline")
		sp.Int("deadline_stopped", rec.Stopped)
	}
	return &Result{Rows: out, Stats: stats}, rec, nil
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
	res, _, err := st.finishLineage(sp, t, b, "", l, st.spec.RequireExact, tupleTime, statsNow(), collect)
	if err != nil && errors.Is(err, t.budgetErr) {
		return nil, fmt.Errorf("plan: %s: %w (RequireExact forbids certified bounds)", st.q.Name, err)
	}
	return res, err
}

// finishFallbackChain is the exact styles' path on queries without a
// hierarchical signature: collect the streamed answer's lineage once, then
// try each rung exact-only — still exact, just computed by a different
// engine — recording a refusing rung's outcome on its span and falling to
// the next; the last rung, Monte Carlo, estimates instead of refusing. A
// refusing rung's span carries the effort it spent, and the result's stats
// keep its record beside the answering rung's (Stats.refused), so that the
// tier counters count it. The lineage is released once the last rung run
// has returned.
func (st *lowerState) finishFallbackChain(b *built, src *conf.Source, answerSp *obs.Span, t0 time.Time) (*Result, error) {
	lsp := st.ex.span("conf[ladder]")
	l, collect, tupleTime, err := st.collectLineage(lsp, answerSp, src, t0)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	t2 := statsNow()
	annotateLineage(lsp, l.Stats())
	var refused []conf.TierStats
	for _, t := range ladder {
		sp := lsp.Child(t.name)
		note := fmt.Sprintf(" (fallback from %s: no hierarchical signature, %s)", st.spec.Style, t.ladderNote)
		var res *Result
		var rec *conf.TierStats
		res, rec, err = st.finishLineage(sp, t, b, note, l, true, tupleTime, t2, collect)
		if err == nil {
			res.Stats.refused = refused
			return res, nil
		}
		if !errors.Is(err, t.budgetErr) {
			return nil, err
		}
		sp.Int(t.effort, rec.Effort()).Str("outcome", t.overrun)
		refused = append(refused, *rec)
	}
	return nil, err
}

// annotateCompiled writes a compilation tier's (OBDD, d-tree) attributes.
func annotateCompiled(sp *obs.Span, s *conf.TierStats) {
	sp.Int("memo_hits", s.MemoHits).Int("memo_misses", s.MemoMisses)
	sp.Int("exact", s.ExactAnswers).Int("bounded", s.Bounded)
	if s.Bounded > 0 {
		sp.Float("max_width", s.MaxWidth)
	}
	sp.LooseInt("hdr_recycled", s.HdrRecycled)
}
