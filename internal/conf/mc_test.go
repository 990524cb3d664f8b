package conf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// mcAnswerRel builds a two-source answer relation: data column d, V/P pairs
// for sources R and S. Rows are given as (d, varR, pR, varS, pS).
func mcAnswerRel(rows [][5]float64) *table.Relation {
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
	)
	rel := table.NewRelation(sch)
	for _, r := range rows {
		rel.MustAppend(table.Tuple{
			table.Int(int64(r[0])),
			table.VarValue(prob.Var(r[1])), table.Float(r[2]),
			table.VarValue(prob.Var(r[3])), table.Float(r[4]),
		})
	}
	return rel
}

// lineageOf collects rel's lineage, failing the test on error.
func lineageOf(t *testing.T, rel *table.Relation) *Lineage {
	t.Helper()
	l, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCollectLineage(t *testing.T) {
	// Answer d=1 has two duplicates sharing variable x1; answer d=2 one.
	rel := mcAnswerRel([][5]float64{
		{2, 5, 0.5, 6, 0.6},
		{1, 1, 0.1, 2, 0.2},
		{1, 1, 0.1, 3, 0.3},
	})
	l, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Keys) != 2 || len(l.DNFs) != 2 {
		t.Fatalf("groups = %d", len(l.Keys))
	}
	// Sorted by the data column: d=1 first.
	if l.Keys[0][0].I != 1 || l.Keys[1][0].I != 2 {
		t.Fatalf("keys = %v, %v", l.Keys[0], l.Keys[1])
	}
	if got := l.DNFs[0].String(); got != "x1∧x2 ∨ x1∧x3" {
		t.Errorf("lineage of d=1 = %s", got)
	}
	if got := l.DNFs[1].String(); got != "x5∧x6" {
		t.Errorf("lineage of d=2 = %s", got)
	}
	if l.Clauses != 3 {
		t.Errorf("clauses = %d", l.Clauses)
	}
	if p := l.Assign.P(3); p != 0.3 {
		t.Errorf("P(x3) = %g", p)
	}
}

// TestMonteCarloMatchesExactOperator compares the Monte Carlo operator with
// the exact signature-based operator on the same answer relation: a single
// source R under signature R*, i.e. per-answer independent disjunctions —
// which the estimator resolves exactly through its disjoint-clause shortcut.
func TestMonteCarloMatchesExactOperator(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		rel.MustAppend(table.Tuple{
			table.Int(int64(i % 10)),
			table.VarValue(prob.Var(i + 1)), table.Float(0.05 + 0.9*rng.Float64()),
		})
	}
	exact, _, err := ComputeStats(rel, signature.NewStar(signature.Table("R")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, stats, err := MonteCarloLineage(context.Background(), lineageOf(t, rel), prob.MCOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExactAnswers != 10 || stats.Samples != 0 {
		t.Errorf("disjoint lineages should all resolve exactly: %+v", stats)
	}
	if exact.Len() != approx.Len() {
		t.Fatalf("row counts: exact %d, mc %d", exact.Len(), approx.Len())
	}
	de, da := exact.Schema.MustColIndex("d"), approx.Schema.MustColIndex("d")
	ce, ca := exact.Schema.MustColIndex(ConfCol), approx.Schema.MustColIndex(ConfCol)
	for i := range exact.Rows {
		if exact.Rows[i][de].I != approx.Rows[i][da].I {
			t.Fatalf("row %d: key mismatch %v vs %v", i, exact.Rows[i], approx.Rows[i])
		}
		if !prob.ApproxEqual(exact.Rows[i][ce].F, approx.Rows[i][ca].F, 1e-9) {
			t.Errorf("row %d: exact %g vs mc %g", i, exact.Rows[i][ce].F, approx.Rows[i][ca].F)
		}
	}
}

// TestMonteCarloVsWorlds checks the sampled path against possible-world
// enumeration on overlapping lineage (shared variables force sampling).
func TestMonteCarloVsWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows [][5]float64
	for d := 0; d < 6; d++ {
		// Up to 4 duplicates per answer over a pool of 8 variables per
		// source, so clauses overlap within a group.
		for k := 0; k < 1+rng.Intn(4); k++ {
			rows = append(rows, [5]float64{
				float64(d),
				float64(1 + rng.Intn(8)), 0.1 + 0.8*rng.Float64(),
				float64(9 + rng.Intn(8)), 0.1 + 0.8*rng.Float64(),
			})
		}
	}
	// Re-randomized probabilities per (var) would be inconsistent; fix one
	// probability per variable id.
	probOf := make(map[int]float64)
	for i := range rows {
		for _, c := range []int{1, 3} {
			id := int(rows[i][c])
			if _, ok := probOf[id]; !ok {
				probOf[id] = rows[i][c+1]
			}
			rows[i][c+1] = probOf[id]
		}
	}
	rel := mcAnswerRel(rows)
	const eps = 0.02
	out, _, err := MonteCarloLineage(context.Background(), lineageOf(t, rel), prob.MCOptions{Epsilon: eps, Delta: 1e-4, Seed: 17})
	if err != nil {
		t.Fatal(err)
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
		got := out.Rows[i][ci].F
		if math.Abs(got-want) > eps {
			t.Errorf("answer %v: estimate %g, exact %g (|err| > %g) for %s",
				l.Keys[i], got, want, eps, l.DNFs[i])
		}
	}
}

// TestMonteCarloInconsistentProbability: the same variable with two
// different marginals is a corrupt input and must error, not silently pick
// one.
func TestMonteCarloInconsistentProbability(t *testing.T) {
	rel := mcAnswerRel([][5]float64{
		{1, 1, 0.1, 2, 0.2},
		{1, 1, 0.9, 3, 0.3},
	})
	if _, err := CollectLineage(rel); err == nil {
		t.Error("inconsistent marginals for x1 must be rejected")
	}
}
