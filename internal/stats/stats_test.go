package stats

import (
	"math"
	"testing"

	"repro/internal/prob"
	"repro/internal/table"
)

// uniformTable builds a table with n rows: a runs 0..n-1 (all distinct), b
// cycles over 10 values, p alternates 0.2/0.8.
func uniformTable(n int) *table.ProbTable {
	pt := table.NewProbTable("T", table.DataCol("a", table.KindInt), table.DataCol("b", table.KindInt))
	for i := 0; i < n; i++ {
		p := 0.2
		if i%2 == 1 {
			p = 0.8
		}
		pt.MustAddRow(prob.Var(i+1), p, table.Int(int64(i)), table.Int(int64(i%10)))
	}
	return pt
}

func TestAnalyzeBasics(t *testing.T) {
	ts := Analyze(uniformTable(1000))
	if ts.Rows != 1000 {
		t.Fatalf("rows = %d", ts.Rows)
	}
	if got := ts.Cols["a"].Distinct; got != 1000 {
		t.Errorf("distinct(a) = %d, want 1000", got)
	}
	if got := ts.Cols["b"].Distinct; got != 10 {
		t.Errorf("distinct(b) = %d, want 10", got)
	}
	if math.Abs(ts.AvgProb-0.5) > 1e-9 {
		t.Errorf("avg prob = %g, want 0.5", ts.AvgProb)
	}
	if ts.AvgTupleWidth != 8+8+16 {
		t.Errorf("avg tuple width = %g, want 32", ts.AvgTupleWidth)
	}
	if table.Compare(ts.Cols["a"].Min, table.Int(0)) != 0 || table.Compare(ts.Cols["a"].Max, table.Int(999)) != 0 {
		t.Errorf("min/max(a) = %v/%v", ts.Cols["a"].Min, ts.Cols["a"].Max)
	}
}

func TestSelectivityEstimates(t *testing.T) {
	ts := Analyze(uniformTable(1000))
	if got := ts.Cols["b"].EqSelectivity(table.Int(3)); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("eq selectivity = %g, want 0.1", got)
	}
	// a < 250 keeps ~25% of a uniform 0..999 column; the sampled equi-depth
	// histogram should land within a few buckets of that.
	got := ts.Cols["a"].RangeSelectivity("<", table.Int(250))
	if got < 0.15 || got > 0.35 {
		t.Errorf("range selectivity(a<250) = %g, want ≈ 0.25", got)
	}
	if lt, gt := ts.Cols["a"].RangeSelectivity("<", table.Int(250)), ts.Cols["a"].RangeSelectivity(">=", table.Int(250)); math.Abs(lt+gt-1) > 1e-9 {
		t.Errorf("complementary selectivities sum to %g", lt+gt)
	}
	// Unknown stats fall back to the historic defaults.
	var nilCS *ColumnStats
	if got := nilCS.EqSelectivity(table.Int(1)); got != DefaultEqSelectivity {
		t.Errorf("nil eq selectivity = %g", got)
	}
	if got := nilCS.RangeSelectivity("<", table.Int(1)); got != DefaultRangeSelectivity {
		t.Errorf("nil range selectivity = %g", got)
	}
}

func TestJoinAndDistinctEstimates(t *testing.T) {
	// Keeping half the rows of a 10-distinct column keeps ≈ all 10 values.
	if got := DistinctAfter(10, 1000, 500); got < 9.9 || got > 10 {
		t.Errorf("distinct after = %g, want ≈ 10", got)
	}
	// Keeping 5 rows of an all-distinct column keeps ≈ 5 values.
	if got := DistinctAfter(1000, 1000, 5); got < 4 || got > 5.1 {
		t.Errorf("distinct after = %g, want ≈ 5", got)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	a, b := Analyze(uniformTable(5000)), Analyze(uniformTable(5000))
	for name, ca := range a.Cols {
		cb := b.Cols[name]
		if ca.Distinct != cb.Distinct || len(ca.Hist.Bounds) != len(cb.Hist.Bounds) {
			t.Fatalf("ANALYZE not deterministic on %s", name)
		}
		for i := range ca.Hist.Bounds {
			if table.Compare(ca.Hist.Bounds[i], cb.Hist.Bounds[i]) != 0 {
				t.Fatalf("histogram bound %d differs on %s", i, name)
			}
		}
	}
}

// UniformTable exposes uniformTable to the package's external tests.
var UniformTable = uniformTable
