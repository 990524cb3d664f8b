package conf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pool"
	"repro/internal/table"
)

// TestIndProject: π^ind groups by the kept attributes and combines each
// group's row probabilities — the product of a row's P columns — with
// MystiQ's 1-10^Σlog10(1.001-p); the result is bit-identical whatever the
// input order, the sort budget and the worker count.
func TestIndProject(t *testing.T) {
	rel := probMode(randomTwoSourceRel(rand.New(rand.NewSource(3)), 400, 12))
	want := make(map[int64][]float64)
	for _, row := range rel.Rows {
		want[row[0].I] = append(want[row[0].I], row[1].F*row[2].F)
	}
	var ref *table.Relation
	for _, c := range []struct {
		name    string
		budget  int
		workers int
	}{{"serial", 0, 1}, {"spilled", 64, 1}, {"partitioned", 0, 4}, {"partitioned+spilled", 64, 4}} {
		shuffled := table.NewRelation(rel.Schema)
		shuffled.Rows = append(shuffled.Rows, rel.Rows...)
		rand.New(rand.NewSource(int64(len(c.name)))).Shuffle(shuffled.Len(), func(i, j int) {
			shuffled.Rows[i], shuffled.Rows[j] = shuffled.Rows[j], shuffled.Rows[i]
		})
		var stats Stats
		src, err := IndProject(FromRelation(shuffled), []string{"d"},
			Options{SortBudget: c.budget, TmpDir: t.TempDir(), Pool: pool.New(c.workers)}, &stats)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out, err := src.Relation(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Scans != 1 || stats.Sorts != 1 || (stats.SpilledRuns > 0) != (c.budget > 0) {
			t.Errorf("%s: stats %+v", c.name, stats)
		}
		if names := out.Schema.Names(); len(names) != 2 || names[0] != "d" || out.Schema.Cols[1].Role != table.RoleProb {
			t.Fatalf("%s: output schema %v", c.name, names)
		}
		if ref == nil {
			ref = out
			if out.Len() != len(want) {
				t.Fatalf("%d groups, want %d", out.Len(), len(want))
			}
			for _, row := range out.Rows {
				none := 1.0
				for _, p := range want[row[0].I] {
					none *= 1.001 - p
				}
				if got := row[1].F; math.Abs(got-(1-none)) > 1e-12 {
					t.Errorf("group %d: %g, want %g", row[0].I, got, 1-none)
				}
			}
			continue
		}
		for i, row := range out.Rows {
			if row[0].I != ref.Rows[i][0].I || math.Float64bits(row[1].F) != math.Float64bits(ref.Rows[i][1].F) {
				t.Fatalf("%s: row %d is %v, serial run has %v", c.name, i, row, ref.Rows[i])
			}
		}
	}
	// Two events in one group: MystiQ's 1 − (1.001−0.1)·(1.001−0.2) = 0.278299,
	// not the exact 0.28 — the 1.001 fudge is part of the baseline.
	two := table.NewRelation(table.NewSchema(table.DataCol("g", table.KindInt), table.ProbCol("R")))
	two.MustAppend(table.Tuple{table.Int(1), table.Float(0.1)})
	two.MustAppend(table.Tuple{table.Int(1), table.Float(0.2)})
	src, err := IndProject(FromRelation(two), []string{"g"}, Options{}, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := src.Relation(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || math.Abs(out.Rows[0][1].F-0.278299) > 1e-12 {
		t.Errorf("{0.1, 0.2}: got %v, want one group at 0.278299", out.Rows)
	}
	if _, err := IndProject(FromRelation(rel), []string{"nope"}, Options{}, &Stats{}); err == nil {
		t.Error("a kept attribute missing from the input must be rejected")
	}
}

// TestIndProjectUnderflowIsNaN: the modelled POWER underflow on a large
// group of near-certain events yields NaN, which the plan layer turns into
// MystiQ's runtime error (§VII).
func TestIndProjectUnderflowIsNaN(t *testing.T) {
	rel := table.NewRelation(table.NewSchema(table.DataCol("g", table.KindInt), table.ProbCol("R")))
	for i := 0; i < 200000; i++ {
		rel.MustAppend(table.Tuple{table.Int(1), table.Float(0.999)})
	}
	src, err := IndProject(FromRelation(rel), []string{"g"}, Options{}, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := src.Relation(context.Background(), nil)
	if out.Len() != 1 || !math.IsNaN(out.Rows[0][1].F) {
		t.Errorf("expected one NaN group from the underflowed aggregate, got %v", out.Rows)
	}
}
