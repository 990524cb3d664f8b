package conf

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/clauseset"
	"repro/internal/pool"
	"repro/internal/table"
)

// This file is the one contract behind the lineage tiers — the confidence
// operators for queries the sort+scan operator (operator.go) must reject.
// Every tier consumes the same collected Lineage (one DNF per distinct
// answer) and produces the same output relation (data columns plus conf,
// in Keys order). The compilation tiers — OBDD (obdd.go) and d-tree
// (dtree.go) — are the two settings of one compile kernel (internal/dtree)
// and differ only in how one answer's DNF becomes a clauseset.Result, so
// they share the per-answer driver below and one stats shape; Monte Carlo
// (mc.go) keeps its own sampler fan-out and estimator stats, and shares the
// stats head and the row assembly.

// TierStats reports what a compilation tier did. Nodes is the tier's effort
// unit, the kernel's expansion steps (for OBDD answers over budget, plus the
// anytime mode's steps).
type TierStats struct {
	LineageStats
	Nodes        int64 // compilation effort, all answers
	MemoHits     int64 // residual-memo hits across all compilations
	MemoMisses   int64 // residual-memo misses across all compilations
	HdrRecycled  int64 // clause headers recycled instead of arena-carved
	ExactAnswers int64 // answers with exact confidences
	Bounded      int64 // answers resolved only to [lo, hi] bounds
	Stopped      int64 // bounded answers cut short by a deadline-watermark Stop
	// LowerBound and UpperBound certify every answer's true confidence:
	// min over answers of the per-answer lo, max of the per-answer hi
	// (exact answers contribute their exact value to both).
	LowerBound float64
	UpperBound float64
	// MaxWidth is the widest per-answer interval (0 when all exact): each
	// reported confidence is within MaxWidth/2 of the truth.
	MaxWidth float64
}

// OBDDStats and DTreeStats are the compilation tiers' one stats shape.
type (
	OBDDStats  = TierStats
	DTreeStats = TierStats
)

// compileLineage is the per-answer driver of the compilation tiers: compile
// every answer's lineage on the pool, then reduce the results serially in
// answer order so the stats are deterministic. The output is a function of
// the lineage and options — never of the worker count.
//
// Each worker draws a tier state S (builder, scratch) from a sync.Pool, so
// tables and arenas are paid once per worker, not once per answer. The zero
// S must be usable, and compile must reset it first — the kernel's entry
// points do: it still holds the previous answer's memo.
//
// The degradation rule lives here, once. An answer whose compilation has
// not started when opts.Stop fires is certified by the clause-weight bound
// alone. With exactOnly, a result that is neither exact nor deadline-stopped
// fails the run with budgetErr (pool.Do returns the lowest answer index's
// error, as a serial loop would) so the caller can fall to its next tier; a
// stopped result is accepted even then — its bounds are certified, and
// falling further would spend deadline that is already gone. ctx and p may
// be nil (no cancellation, serial execution).
func compileLineage[S any](ctx context.Context, p *pool.Pool, l *Lineage, opts clauseset.Options, exactOnly bool, budgetErr error,
	compile func(s *S, i int) (clauseset.Result, error)) (*table.Relation, *TierStats, error) {
	var states sync.Pool
	results := make([]clauseset.Result, len(l.Keys))
	err := pool.Get(p, 1).Do(ctx, len(l.Keys), func(i int) error {
		if opts.Stop != nil && opts.Stop() {
			lo, hi := l.DNFs[i].CheapBounds(l.Assign)
			results[i] = clauseset.Result{P: (lo + hi) / 2, Lo: lo, Hi: hi, Stopped: lo != hi, Exact: lo == hi}
			return nil
		}
		s, _ := states.Get().(*S)
		if s == nil {
			s = new(S)
		}
		// The deferred Put also runs on panic paths, so a panicking
		// compilation cannot strand the state outside the sync.Pool.
		defer states.Put(s)
		res, err := compile(s, i)
		if err != nil {
			return fmt.Errorf("conf: answer %d: %w", i, err)
		}
		if exactOnly && !res.Exact && !res.Stopped {
			return fmt.Errorf("%w: answer %d (%d clauses, budget %d)",
				budgetErr, i, len(l.DNFs[i].Clauses), opts.Budget())
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := l.output()
	stats := &TierStats{LineageStats: l.Stats()}
	for i, res := range results {
		if res.Exact {
			stats.ExactAnswers++
		} else {
			stats.Bounded++
			if res.Stopped {
				stats.Stopped++
			}
		}
		stats.Nodes += int64(res.Nodes)
		stats.MemoHits += res.MemoHits
		stats.MemoMisses += res.MemoMisses
		stats.HdrRecycled += res.HdrRecycled
		if i == 0 || res.Lo < stats.LowerBound {
			stats.LowerBound = res.Lo
		}
		if i == 0 || res.Hi > stats.UpperBound {
			stats.UpperBound = res.Hi
		}
		if w := res.Hi - res.Lo; w > stats.MaxWidth {
			stats.MaxWidth = w
		}
		out.Rows = append(out.Rows, l.row(i, res.P))
	}
	return out, stats, nil
}
