package conf

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dtree"
	"repro/internal/obdd"
	"repro/internal/prob"
)

// TestDTreeMatchesEnumeration: the d-tree operator's confidences on a
// shared-variable answer relation (correlated duplicates, beyond the exact
// operator's independence shortcuts) match possible-world enumeration.
func TestDTreeMatchesEnumeration(t *testing.T) {
	rel := mcAnswerRel([][5]float64{
		{1, 1, 0.1, 2, 0.2},
		{1, 1, 0.1, 3, 0.3},
		{1, 4, 0.7, 3, 0.3},
		{2, 5, 0.5, 6, 0.6},
	})
	out, stats, err := DTreeLineage(context.Background(), nil, lineageOf(t, rel), dtree.Options{}, false)
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
			t.Errorf("answer %d: dtree %g, worlds %g", i, got, want)
		}
	}
}

// TestDTreeMatchesOBDDOperator: both lineage tiers compute the same
// confidences on the same answer relation (bit-for-bit they may differ in
// the last ulp — the expansions run in different orders — so compare at the
// exactness tolerance).
func TestDTreeMatchesOBDDOperator(t *testing.T) {
	rel := mcAnswerRel([][5]float64{
		{1, 1, 0.3, 2, 0.4},
		{1, 2, 0.4, 3, 0.5},
		{1, 3, 0.5, 4, 0.6},
		{2, 4, 0.6, 5, 0.7},
		{2, 5, 0.7, 6, 0.8},
	})
	viaOBDD, ostats, err := OBDDLineage(context.Background(), nil, lineageOf(t, rel), nil, obdd.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	viaDTree, dstats, err := DTreeLineage(context.Background(), nil, lineageOf(t, rel), dtree.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ostats.OutputTuples != dstats.OutputTuples || dstats.Bounded != 0 {
		t.Fatalf("obdd stats %+v vs dtree stats %+v", ostats, dstats)
	}
	co, cd := viaOBDD.Schema.MustColIndex(ConfCol), viaDTree.Schema.MustColIndex(ConfCol)
	for i := range viaOBDD.Rows {
		if o, d := viaOBDD.Rows[i][co].F, viaDTree.Rows[i][cd].F; math.Abs(o-d) > 1e-9 {
			t.Errorf("row %d: obdd %g, dtree %g", i, o, d)
		}
	}
}

// TestDTreeExactOnlyBudget: in exact-only mode a starved budget surfaces
// ErrDTreeBudget (the fallback chain's trigger); otherwise the same input
// yields certified bounds around the enumeration truth.
func TestDTreeExactOnlyBudget(t *testing.T) {
	// Chained shared variables so no independence rule fires and every
	// level needs a Shannon step.
	rel := mcAnswerRel([][5]float64{
		{1, 1, 0.3, 2, 0.4},
		{1, 2, 0.4, 3, 0.5},
		{1, 3, 0.5, 4, 0.6},
		{1, 4, 0.6, 5, 0.7},
	})
	opts := dtree.Options{NodeBudget: 1}
	if _, _, err := DTreeLineage(context.Background(), nil, lineageOf(t, rel), opts, true); !errors.Is(err, ErrDTreeBudget) {
		t.Fatalf("exact-only starved budget: err = %v", err)
	}
	out, stats, err := DTreeLineage(context.Background(), nil, lineageOf(t, rel), opts, false)
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
