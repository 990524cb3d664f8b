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
// answer), produces the same output relation (data columns plus conf, in
// Keys order) and reports the same record, TierStats. The compilation
// tiers — OBDD (obdd.go) and d-tree (dtree.go) — are the two settings of
// one compile kernel (internal/dtree) and differ only in how one answer's
// DNF becomes a clauseset.Result, so they share the per-answer driver
// below; Monte Carlo (mc.go) keeps its own sampler fan-out and shares the
// record and the row assembly.

// The lineage tiers' names, as TierStats.Tier reports them.
const (
	TierOBDD  = "obdd"
	TierDTree = "dtree"
	TierMC    = "mc"
)

// TierStats is what a lineage tier reports: one record for every tier,
// whose fields a tier that does not use them leaves 0. The planner
// (plan.Stats.Lineage), the metrics registry and the facade read it whole.
type TierStats struct {
	// LineageStats is what collection saw, whichever tier then ran.
	LineageStats
	// Tier names the tier that filled the record: TierOBDD, TierDTree or
	// TierMC ("" when no lineage tier ran).
	Tier string
	// Nodes is a compilation tier's effort: the compile kernel's expansion
	// steps across all answers (for OBDD answers over budget, plus the
	// anytime mode's steps).
	Nodes int64
	// MemoHits and MemoMisses count residual-memo probes across all
	// compilations; HdrRecycled counts clause headers recycled instead of
	// arena-carved (it depends on sync.Pool scheduling, so it is the one
	// field that may vary with the worker count).
	MemoHits    int64
	MemoMisses  int64
	HdrRecycled int64
	// ExactAnswers counts answers with exact confidences (for Monte Carlo:
	// resolved by an exact shortcut, with no sampling).
	ExactAnswers int64
	// Bounded counts the compilation tiers' answers resolved only to
	// certified [lo, hi] bounds, whose midpoint is the reported confidence.
	Bounded int64
	// Stopped counts answers a deadline-watermark Stop cut short: bounded
	// answers of a compilation tier, or estimates that carry the wider ε
	// the drawn samples actually guarantee.
	Stopped int64
	// LowerBound and UpperBound certify every answer's true confidence when
	// some answer is bounded: min over answers of the per-answer lo, max of
	// the per-answer hi (exact answers contribute their exact value to
	// both). MaxWidth is the widest per-answer interval: each reported
	// confidence is within MaxWidth/2 of the truth. All three are 0 unless
	// Bounded > 0.
	LowerBound float64
	UpperBound float64
	MaxWidth   float64
	// Samples is Monte Carlo's effort: samples drawn across all answers;
	// MaxAnswerSamples is the largest per-answer count.
	Samples          int64
	MaxAnswerSamples int64
	// Capped counts Monte Carlo answers whose run MCOptions.MaxSamples cut
	// short of the requested (ε, δ) sample count.
	Capped int64
	// MaxEpsilon is the weakest per-answer additive (ε, δ) guarantee of a
	// Monte Carlo run: the requested ε unless MaxSamples capped or a Stop
	// cut short some estimate.
	MaxEpsilon float64
}

// Effort is the record's effort in its tier's unit: samples for Monte
// Carlo, expansion steps (Nodes) for the compilation tiers.
func (s *TierStats) Effort() int64 {
	if s.Tier == TierMC {
		return s.Samples
	}
	return s.Nodes
}

// OBDDStats, DTreeStats and MCStats are aliases of the record, by tier; the
// benchmark's layer probes (bench/layers.go) name them.
type (
	OBDDStats  = TierStats
	DTreeStats = TierStats
	MCStats    = TierStats
)

// compileLineage is the per-answer driver of the compilation tiers: compile
// every answer's lineage on the pool, then reduce the results serially in
// answer order into the named tier's record, so it is deterministic. The
// output is a function of the lineage and options — never of the worker
// count.
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
func compileLineage[S any](ctx context.Context, p *pool.Pool, l *Lineage, tier string, opts clauseset.Options, exactOnly bool, budgetErr error,
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
	stats := &TierStats{LineageStats: l.Stats(), Tier: tier}
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
	if stats.Bounded == 0 {
		stats.LowerBound, stats.UpperBound, stats.MaxWidth = 0, 0, 0
	}
	return out, stats, nil
}
