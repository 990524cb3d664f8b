package plan

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/fd"
	"repro/internal/prob"
)

// hardTruth enumerates the exact per-answer confidences of the hard query
// on a catalog instance (aligned with the plan's sorted answer order).
func hardTruth(t *testing.T, c *Catalog) []float64 {
	t.Helper()
	answer, err := Answer(c, hardQuery())
	if err != nil {
		t.Fatal(err)
	}
	l, err := conf.CollectLineage(answer)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, len(l.Keys))
	for i := range l.Keys {
		p, err := prob.ProbByWorlds(l.DNFs[i], l.Assign)
		if err != nil {
			t.Fatal(err)
		}
		truth[i] = p
	}
	return truth
}

// TestOBDDPlanExactOnHardQuery: the OBDD style computes *exact* confidences
// on randomized instances of the #P-hard pattern — the queries PR 1 could
// only estimate — matching possible-world enumeration to 1e-9.
func TestOBDDPlanExactOnHardQuery(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(61 + trial)))
		c := hardDB(rng)
		res, err := Run(c, hardQuery(), fd.NewSet(), Spec{Style: OBDD})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Stats.Approximate {
			t.Fatalf("trial %d: under-budget OBDD run must be exact: %+v", trial, res.Stats)
		}
		if !strings.Contains(res.Stats.Plan, "obdd") || res.Stats.OBDDNodes == 0 {
			t.Errorf("trial %d: stats should describe the OBDD run: %+v", trial, res.Stats)
		}
		truth := hardTruth(t, c)
		if len(truth) != res.Rows.Len() {
			t.Fatalf("trial %d: %d truths vs %d rows", trial, len(truth), res.Rows.Len())
		}
		ci := res.Rows.Schema.MustColIndex(conf.ConfCol)
		for i, want := range truth {
			if got := res.Rows.Rows[i][ci].F; !prob.ApproxEqual(got, want, 1e-9) {
				t.Errorf("trial %d answer %d: obdd %g, worlds %g", trial, i, got, want)
			}
		}
	}
}

// TestOBDDPlanBounds: a starved node budget turns the OBDD style into the
// certified-anytime mode: Stats.LowerBound ≤ every true confidence ≤
// Stats.UpperBound, each reported confidence is a bound midpoint, bounds
// tighten monotonically with the budget, and runs are deterministic.
func TestOBDDPlanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	c := hardDB(rng)
	truth := hardTruth(t, c)

	run := func(budget int) *Result {
		res, err := Run(c, hardQuery(), fd.NewSet(), Spec{Style: OBDD, Compile: dtree.Options{NodeBudget: budget}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run(1)
	if !res.Stats.Approximate {
		t.Fatalf("budget 1 should force bounds: %+v", res.Stats)
	}
	for i, want := range truth {
		if res.Stats.LowerBound > want+1e-9 || want > res.Stats.UpperBound+1e-9 {
			t.Errorf("answer %d: truth %g outside certified [%g, %g]",
				i, want, res.Stats.LowerBound, res.Stats.UpperBound)
		}
	}

	prevWidth := math.Inf(1)
	for _, budget := range []int{1, 2, 4, 8, 16} {
		r := run(budget)
		width := r.Stats.UpperBound - r.Stats.LowerBound
		if width > prevWidth+1e-12 {
			t.Errorf("budget %d: certified width %g loosened from %g", budget, width, prevWidth)
		}
		prevWidth = width
	}

	again := run(1)
	if again.Rows.Len() != res.Rows.Len() {
		t.Fatalf("row counts differ across identical runs: %d vs %d", res.Rows.Len(), again.Rows.Len())
	}
	ci := res.Rows.Schema.MustColIndex(conf.ConfCol)
	for i := range res.Rows.Rows {
		if res.Rows.Rows[i][ci].F != again.Rows.Rows[i][ci].F {
			t.Errorf("row %d: %g vs %g across identical runs", i, res.Rows.Rows[i][ci].F, again.Rows.Rows[i][ci].F)
		}
	}
	if again.Stats.LowerBound != res.Stats.LowerBound || again.Stats.UpperBound != res.Stats.UpperBound {
		t.Errorf("bounds must be deterministic: [%g, %g] vs [%g, %g]",
			res.Stats.LowerBound, res.Stats.UpperBound, again.Stats.LowerBound, again.Stats.UpperBound)
	}

	if _, err := Run(c, hardQuery(), fd.NewSet(), Spec{
		Style: OBDD, Compile: dtree.Options{NodeBudget: 1}, RequireExact: true,
	}); err == nil {
		t.Error("RequireExact must reject bound-mode OBDD results")
	}
}

// TestOBDDPlanAgreesWithLazyOnHierarchical: on the paper's hierarchical
// running example the OBDD style (signature-derived variable order) returns
// the same answers as the exact sort+scan operator.
func TestOBDDPlanAgreesWithLazyOnHierarchical(t *testing.T) {
	cat, _ := fig1Catalog()
	q := introQ()
	q.Sels = q.Sels[1:] // more answers
	base, err := Run(cat, q.Clone(), tpchFDs(), Spec{Style: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cat, q.Clone(), tpchFDs(), Spec{Style: OBDD})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Approximate {
		t.Fatalf("hierarchical lineage must compile exactly: %+v", res.Stats)
	}
	if !strings.Contains(res.Stats.Signature, "signature") {
		t.Errorf("OBDD on a hierarchical query should use the signature order: %q", res.Stats.Signature)
	}
	if err := sameAnswers(base.Rows, res.Rows, 1e-9); err != nil {
		t.Error(err)
	}
}

// TestStyleNamesDerived: the ParseStyle error and StyleNames list every
// style, including new ones, without a hand-maintained literal.
func TestStyleNamesDerived(t *testing.T) {
	if got := StyleNames(); got != "lazy|eager|hybrid|mystiq|mc|obdd|dtree|auto" {
		t.Errorf("StyleNames() = %q", got)
	}
	if s, err := ParseStyle("obdd"); err != nil || s != OBDD {
		t.Errorf("ParseStyle(obdd) = %v, %v", s, err)
	}
	_, err := ParseStyle("bogus")
	if err == nil || !strings.Contains(err.Error(), StyleNames()) {
		t.Errorf("ParseStyle error should quote the derived style list: %v", err)
	}
	for _, s := range allStyles {
		if s.String() == "?" {
			t.Errorf("style %d has no name", s)
		}
	}
}
