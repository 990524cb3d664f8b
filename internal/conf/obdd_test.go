package conf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/obdd"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// TestOBDDMatchesEnumeration: the OBDD operator's confidences on a shared-
// variable answer relation (correlated duplicates, beyond the exact
// operator's independence shortcuts) match possible-world enumeration.
func TestOBDDMatchesEnumeration(t *testing.T) {
	rel := mcAnswerRel([][5]float64{
		{1, 1, 0.1, 2, 0.2},
		{1, 1, 0.1, 3, 0.3},
		{1, 4, 0.7, 3, 0.3},
		{2, 5, 0.5, 6, 0.6},
	})
	out, stats, err := OBDDLineage(context.Background(), nil, lineageOf(t, rel), nil, obdd.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bounded != 0 || stats.ExactAnswers != 2 || stats.OutputTuples != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	l, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	ci := out.Schema.MustColIndex(ConfCol)
	for i := range l.Keys {
		want, err := prob.ProbByWorlds(l.DNFs[i], l.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Rows[i][ci].F; !prob.ApproxEqual(got, want, 1e-9) {
			t.Errorf("answer %d: obdd %g, worlds %g", i, got, want)
		}
	}
	if stats.Bounded != 0 || stats.LowerBound != 0 || stats.UpperBound != 0 || stats.MaxWidth != 0 {
		// All answers exact: the record carries no bounds.
		t.Errorf("exact run should report no bounds: %+v", stats)
	}
}

// TestOBDDMatchesExactOperator: on a relation the signature-based operator
// handles, OBDD (with the signature-derived order) computes the same
// confidences.
func TestOBDDMatchesExactOperator(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		rel.MustAppend(table.Tuple{
			table.Int(int64(i % 10)),
			table.VarValue(prob.Var(i + 1)), table.Float(0.05 + 0.9*rng.Float64()),
		})
	}
	sig := signature.NewStar(signature.Table("R"))
	exact, _, err := ComputeStats(rel, sig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaOBDD, stats, err := OBDDLineage(context.Background(), nil, lineageOf(t, rel), sig, obdd.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bounded != 0 || stats.Nodes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	ce, co := exact.Schema.MustColIndex(ConfCol), viaOBDD.Schema.MustColIndex(ConfCol)
	if exact.Len() != viaOBDD.Len() {
		t.Fatalf("row counts: %d vs %d", exact.Len(), viaOBDD.Len())
	}
	for i := range exact.Rows {
		if e, o := exact.Rows[i][ce].F, viaOBDD.Rows[i][co].F; math.Abs(e-o) > 1e-9 {
			t.Errorf("row %d: exact %g, obdd %g", i, e, o)
		}
	}
}

// TestOBDDExactOnlyBudget: in exact-only mode a starved budget surfaces
// ErrOBDDBudget (the fallback chain's trigger); otherwise the same input
// yields certified bounds around the enumeration truth.
func TestOBDDExactOnlyBudget(t *testing.T) {
	// Chained shared variables so no polynomial shortcut applies.
	rel := mcAnswerRel([][5]float64{
		{1, 1, 0.3, 2, 0.4},
		{1, 2, 0.4, 3, 0.5},
		{1, 3, 0.5, 4, 0.6},
		{1, 4, 0.6, 5, 0.7},
	})
	opts := obdd.Options{NodeBudget: 1}
	if _, _, err := OBDDLineage(context.Background(), nil, lineageOf(t, rel), nil, opts, true); !errors.Is(err, ErrOBDDBudget) {
		t.Fatalf("exact-only starved budget: err = %v", err)
	}
	out, stats, err := OBDDLineage(context.Background(), nil, lineageOf(t, rel), nil, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bounded != 1 || stats.MaxWidth <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	l, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := prob.ProbByWorlds(l.DNFs[0], l.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LowerBound > truth || truth > stats.UpperBound {
		t.Errorf("[%g, %g] does not certify truth %g", stats.LowerBound, stats.UpperBound, truth)
	}
	ci := out.Schema.MustColIndex(ConfCol)
	if mid := out.Rows[0][ci].F; math.Abs(mid-truth) > stats.MaxWidth/2+1e-9 {
		t.Errorf("midpoint %g further than half-width %g from truth %g", mid, stats.MaxWidth/2, truth)
	}
}

// TestCollectLineageSources: lineage collection records which source table
// carried each variable — the hook for signature-derived OBDD orders.
func TestCollectLineageSources(t *testing.T) {
	rel := mcAnswerRel([][5]float64{{1, 1, 0.1, 2, 0.2}})
	l, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	// Under the signature S R the S-borne variable ranks first; a variable
	// the lineage never saw ranks after every table.
	rank := sigRank(signature.Concat{signature.Table("S"), signature.Table("R")}, l)
	if rank(1) != 1 || rank(2) != 0 || rank(3) != 2 {
		t.Errorf("ranks of x1, x2, x3 = %d, %d, %d; sources %v, origins %d %d", rank(1), rank(2), rank(3), l.Sources, l.Assign.From(1), l.Assign.From(2))
	}
	if sigRank(nil, l) != nil {
		t.Error("a nil signature must yield a nil rank")
	}
}

// TestOBDDDegradedBoundsPinned pins OBDDLineage's answers on BlocksDNF and
// JoinDNF lineage at budgets 1, 30 and 300 to the bit patterns the
// diagram-building compiler this tier replaced produced. An expansion over
// budget continues in the kernel's best-first anytime mode, so its certified
// interval and midpoint must not move by a bit, and the exact-only run must
// refuse it within one budget of Stop polls; the three exact answers happen
// to reproduce bit for bit too. One pin differs from that compiler's by an
// ulp: join12x12x51 at budget 30, whose lo was 0x3feecd0e6f43289e when a
// cofactor's clause weights were rescaled from the parent's (w/p) rather
// than recomputed as Π p.
func TestOBDDDegradedBoundsPinned(t *testing.T) {
	formulas := map[string]func() (*prob.DNF, *prob.Assignment){
		"blocks12": func() (*prob.DNF, *prob.Assignment) { d, a, _ := difftest.BlocksDNF(12); return d, a },
	}
	for _, s := range [][4]int{{1, 6, 20, 60}, {2, 10, 40, 200}, {3, 12, 12, 51}} {
		formulas[fmt.Sprintf("join%dx%dx%d", s[1], s[2], s[3])] = func() (*prob.DNF, *prob.Assignment) {
			return difftest.JoinDNF(rand.New(rand.NewSource(int64(s[0]))), s[1], s[2], s[3])
		}
	}
	for _, c := range []struct {
		formula string
		budget  int
		lo, hi  uint64 // math.Float64bits of the answer's certified interval
		exact   bool
	}{
		{"blocks12", 1, 0x3fd8a7ef9db22d0f, 0x3ff0000000000000, false},
		{"blocks12", 30, 0x3fe75d0ceba0cd68, 0x3ff0000000000000, false},
		{"blocks12", 300, 0x3feb676d81d68be0, 0x3feffffffffffff4, false},
		{"join6x20x60", 1, 0x3fdff57845cdc43c, 0x3ff0000000000000, false},
		{"join6x20x60", 30, 0x3fe97e07939899e8, 0x3ff0000000000000, false},
		{"join6x20x60", 300, 0x3fef2b6473db839b, 0x3fef2b6473db839b, true},
		{"join10x40x200", 1, 0x3fdec00d24f0e629, 0x3ff0000000000000, false},
		{"join10x40x200", 30, 0x3fe80c6642de6a0a, 0x3feffffffffffffe, false},
		{"join10x40x200", 300, 0x3feef2e2f9e5dfa4, 0x3feef2e2f9e5dfa4, true},
		{"join12x12x51", 1, 0x3fe5f74fc5b5cee3, 0x3ff0000000000000, false},
		{"join12x12x51", 30, 0x3feecd0e6f43289d, 0x3ff0000000000000, false},
		{"join12x12x51", 300, 0x3fefb72a12041122, 0x3fefb72a12041122, true},
	} {
		d, a := formulas[c.formula]()
		l := &Lineage{Schema: table.NewSchema(), Keys: []table.Tuple{{}}, DNFs: []*prob.DNF{d}, Assign: a}
		polls := 0
		opts := obdd.Options{NodeBudget: c.budget, Stop: func() bool { polls++; return false }}
		out, st, err := OBDDLineage(context.Background(), nil, l, nil, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, mid := st.LowerBound, st.UpperBound, out.Rows[0][0].F
		if c.exact {
			// The record carries bounds only when some answer is bounded;
			// an exact answer's interval is its confidence.
			if lo != 0 || hi != 0 || st.MaxWidth != 0 {
				t.Errorf("%s budget %d: exact run reports bounds [%g, %g] width %g", c.formula, c.budget, lo, hi, st.MaxWidth)
			}
			lo, hi = mid, mid
		}
		if math.Float64bits(lo) != c.lo || math.Float64bits(hi) != c.hi || mid != (lo+hi)/2 || (st.ExactAnswers == 1) != c.exact {
			t.Errorf("%s budget %d: [%#x, %#x] mid %#x exact %v, want [%#x, %#x] exact %v", c.formula, c.budget,
				math.Float64bits(lo), math.Float64bits(hi), math.Float64bits(mid), st.ExactAnswers == 1, c.lo, c.hi, c.exact)
		}
		polls = 0
		if _, _, err := OBDDLineage(context.Background(), nil, l, nil, opts, true); c.exact != (err == nil) || !c.exact && !errors.Is(err, ErrOBDDBudget) {
			t.Errorf("%s budget %d: exact-only run returned %v", c.formula, c.budget, err)
		}
		// The exact-only run stops at the exact expansion: one Stop poll
		// for the answer and one per step, never the anytime mode's.
		if polls > c.budget+1 {
			t.Errorf("%s budget %d: exact-only run polled Stop %d times, want ≤ %d", c.formula, c.budget, polls, c.budget+1)
		}
	}
}
