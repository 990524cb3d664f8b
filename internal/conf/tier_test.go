package conf

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/obdd"
	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/table"
)

// contractRun is one tier's run in the terms the contract is stated in.
type contractRun struct {
	out     *table.Relation
	head    LineageStats
	exact   int64   // answers resolved exactly
	stopped int64   // answers a Stop cut short
	half    float64 // every confidence is within half of the truth
	zero    bool    // the record beyond the head and the tier name is all zero
	// comparable is the whole record minus what may legitimately vary with
	// scheduling, for the pool-size identity check.
	comparable TierStats
}

// contractTier adapts one lineage tier to the table below: budget caps the
// compilation tiers (0 = default), stop is the degradation probe.
type contractTier struct {
	name     string
	sentinel error // exact-only refusal; nil: the tier never refuses
	// work is how many of contractLineage's three answers cost the tier
	// anything: the single literal is free for the compilers (its
	// clause-weight bound is already exact) but sampled by the naive sampler.
	work int64
	run  func(p *pool.Pool, l *Lineage, budget int, stop func() bool, exactOnly bool) (contractRun, error)
}

// recordRun reads a tier's record in the contract's terms: a compilation
// tier certifies within MaxWidth/2, Monte Carlo within MaxEpsilon, and the
// other leaves its field 0.
func recordRun(out *table.Relation, ts *TierStats, err error) (contractRun, error) {
	if err != nil {
		return contractRun{}, err
	}
	c := *ts
	c.HdrRecycled = 0 // sync.Pool-scheduling dependent
	return contractRun{out: out, head: ts.LineageStats, exact: ts.ExactAnswers, stopped: ts.Stopped,
		half: max(ts.MaxWidth/2, ts.MaxEpsilon), zero: *ts == TierStats{LineageStats: ts.LineageStats, Tier: ts.Tier}, comparable: c}, nil
}

var contractTiers = []contractTier{
	{"obdd", ErrOBDDBudget, 2, func(p *pool.Pool, l *Lineage, budget int, stop func() bool, exactOnly bool) (contractRun, error) {
		return recordRun(OBDDLineage(context.Background(), p, l, nil, obdd.Options{NodeBudget: budget, Stop: stop}, exactOnly))
	}},
	{"dtree", ErrDTreeBudget, 2, func(p *pool.Pool, l *Lineage, budget int, stop func() bool, exactOnly bool) (contractRun, error) {
		return recordRun(DTreeLineage(context.Background(), p, l, obdd.Options{NodeBudget: budget, Stop: stop}, exactOnly))
	}},
	{"mc", nil, 3, func(p *pool.Pool, l *Lineage, _ int, stop func() bool, _ bool) (contractRun, error) {
		// Naive sampling at ε = 0.01 needs ~26k samples per answer, so a
		// Stop (polled between blocks of 8192) has something to cut short.
		return recordRun(MonteCarloLineage(context.Background(), l, prob.MCOptions{Seed: 5, Epsilon: 0.01, Delta: 0.01, Method: prob.MCNaive, Pool: p, Stop: stop}))
	}},
}

// contractLineage is three answers over shared variables: d=1 is a single
// literal (exact under any budget), d=2 and d=3 are chains x₁x₂ ∨ x₂x₃ ∨ …
// with no polynomial shortcut — each overruns a budget of 1, so the
// lowest-index refusal is answer 1.
func contractLineage(t *testing.T) (*Lineage, []float64) {
	t.Helper()
	rel := mcAnswerRel([][5]float64{
		{1, 9, 0.5, 0, 1},
		{2, 1, 0.3, 2, 0.4}, {2, 3, 0.5, 2, 0.4}, {2, 3, 0.5, 4, 0.6}, {2, 5, 0.7, 4, 0.6},
		{3, 11, 0.6, 12, 0.2}, {3, 13, 0.8, 12, 0.2}, {3, 13, 0.8, 14, 0.9},
		{3, 13, 0.8, 14, 0.9}, // a duplicate row, for DupRows
	})
	l, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, len(l.Keys))
	for i := range l.Keys {
		if truth[i], err = prob.ProbByWorlds(l.DNFs[i], l.Assign); err != nil {
			t.Fatal(err)
		}
	}
	return l, truth
}

// mustCertify checks the output shape every tier shares — data columns plus
// conf, one row per answer in Keys order — and that every confidence is
// within the run's certified half-width of the possible-worlds truth.
func mustCertify(t *testing.T, l *Lineage, truth []float64, r contractRun) {
	t.Helper()
	if r.head != l.Stats() || r.head.OutputTuples != 3 || r.head.DupRows != 1 || r.head.Clauses != 8 {
		t.Errorf("stats head %+v, lineage %+v", r.head, l.Stats())
	}
	names := r.out.Schema.Names()
	if len(names) != 2 || names[0] != "d" || names[1] != ConfCol || r.out.Len() != len(l.Keys) {
		t.Fatalf("output %v with %d rows, want [d conf] with %d", names, r.out.Len(), len(l.Keys))
	}
	for i, row := range r.out.Rows {
		if row[0] != l.Keys[i][0] {
			t.Errorf("row %d is answer %v, want %v", i, row[0], l.Keys[i][0])
		}
		if d := math.Abs(row[1].F - truth[i]); d > r.half+1e-9 {
			t.Errorf("answer %d: conf %g is %g from the truth %g, certified half-width %g", i, row[1].F, d, truth[i], r.half)
		}
	}
}

// TestTierContract runs every lineage tier on the same collected lineage
// and checks the contract of tier.go once for all of them.
func TestTierContract(t *testing.T) {
	for _, tier := range contractTiers {
		t.Run(tier.name, func(t *testing.T) {
			l, truth := contractLineage(t)

			// Within budget: every answer resolved (exactly, for the
			// compilation tiers), identically for every pool size.
			want, err := tier.run(nil, l, 0, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			mustCertify(t, l, truth, want)
			if want.comparable.Tier != tier.name {
				t.Errorf("record names tier %q", want.comparable.Tier)
			}
			if tier.sentinel != nil && (want.exact != 3 || want.half != 0) {
				t.Errorf("compilation tier within budget: %d exact, half-width %g", want.exact, want.half)
			}
			if want.stopped != 0 {
				t.Errorf("%d answers stopped without a Stop", want.stopped)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := tier.run(pool.New(workers), l, 0, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualRelations(t, got.out, want.out, workers)
				if got.comparable != want.comparable {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, got.comparable, want.comparable)
				}
			}

			// Exact-only under a starved budget: the tier's typed sentinel,
			// naming the lowest refusing answer whatever the pool size.
			for _, workers := range []int{1, 4} {
				_, err := tier.run(pool.New(workers), l, 1, nil, true)
				if tier.sentinel == nil {
					if err != nil {
						t.Errorf("workers=%d: a tier that never refuses returned %v", workers, err)
					}
					continue
				}
				if !errors.Is(err, tier.sentinel) || !strings.Contains(err.Error(), "answer 1 ") {
					t.Errorf("workers=%d: err = %v, want %v at answer 1", workers, err, tier.sentinel)
				}
				for _, other := range contractTiers {
					if other.sentinel != nil && other.sentinel != tier.sentinel && errors.Is(err, other.sentinel) {
						t.Errorf("workers=%d: %v also matches %s's sentinel", workers, err, other.name)
					}
				}
			}

			// The same starved budget without exact-only degrades to
			// certified bounds instead of refusing.
			bounded, err := tier.run(nil, l, 1, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			mustCertify(t, l, truth, bounded)
			if tier.sentinel != nil && (bounded.exact != 1 || bounded.half <= 0 || bounded.stopped != 0) {
				t.Errorf("starved budget: %d exact, %d stopped, half-width %g", bounded.exact, bounded.stopped, bounded.half)
			}

			// A Stop that has fired before the run starts: nothing errors,
			// even exact-only; every answer that needed work is Stopped and
			// still certified.
			stopped, err := tier.run(pool.New(2), l, 0, func() bool { return true }, true)
			if err != nil {
				t.Fatal(err)
			}
			mustCertify(t, l, truth, stopped)
			if stopped.stopped != tier.work || stopped.exact != 3-tier.work || stopped.half <= 0 {
				t.Errorf("pre-fired Stop: %d stopped, %d exact, half-width %g; want %d, %d, > 0",
					stopped.stopped, stopped.exact, stopped.half, tier.work, 3-tier.work)
			}

			// Zero answers: an empty relation and zero stats.
			empty, err := CollectLineage(mcAnswerRel(nil))
			if err != nil {
				t.Fatal(err)
			}
			none, err := tier.run(pool.New(2), empty, 0, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if none.out.Len() != 0 || len(none.out.Schema.Names()) != 2 || none.head != (LineageStats{}) || !none.zero {
				t.Errorf("zero answers: %d rows, schema %v, stats %+v", none.out.Len(), none.out.Schema.Names(), none.comparable)
			}
		})
	}
}
