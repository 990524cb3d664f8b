package stats

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/prob"
	"repro/internal/table"
)

// TestSidecarRoundTrip: a saved sidecar loads back with every table's
// ANALYZE snapshot intact — row counts, per-column summaries, histogram
// bounds, and the variable ceiling — so disk catalogs can skip the
// first-query statistics pass.
func TestSidecarRoundTrip(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("s", table.KindString),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewColStore(sch)
	for i := 0; i < 500; i++ {
		if err := rel.Append(table.Tuple{
			table.Int(int64(i % 40)),
			table.Str(string(rune('a' + i%26))),
			table.VarValue(prob.Var(i + 7)), table.Float(0.5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	pt := &table.ProbTable{Name: "T", Rel: rel}
	want := &Sidecar{Tables: map[string]*TableStats{"T": Analyze(pt)}, MaxVar: 506}

	dir := t.TempDir()
	if err := SaveSidecar(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSidecar(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxVar != want.MaxVar {
		t.Fatalf("MaxVar = %d, want %d", got.MaxVar, want.MaxVar)
	}
	gt, wt := got.Tables["T"], want.Tables["T"]
	if gt == nil {
		t.Fatal("table T missing after round trip")
	}
	if gt.Rows != wt.Rows || gt.MaxVar != wt.MaxVar {
		t.Fatalf("rows/maxvar = %d/%d, want %d/%d", gt.Rows, gt.MaxVar, wt.Rows, wt.MaxVar)
	}
	if len(gt.Cols) != len(wt.Cols) {
		t.Fatalf("%d column summaries, want %d", len(gt.Cols), len(wt.Cols))
	}
	for name, w := range wt.Cols {
		g := gt.Cols[name]
		if g == nil {
			t.Fatalf("column %s missing after round trip", name)
		}
		if g.Distinct != w.Distinct || g.Min != w.Min || g.Max != w.Max || g.AvgWidth != w.AvgWidth {
			t.Fatalf("col %s: %+v, want %+v", name, g, w)
		}
		if len(g.Hist.Bounds) != len(w.Hist.Bounds) {
			t.Fatalf("col %s: %d histogram bounds, want %d", name, len(g.Hist.Bounds), len(w.Hist.Bounds))
		}
		for i := range w.Hist.Bounds {
			if g.Hist.Bounds[i] != w.Hist.Bounds[i] {
				t.Fatalf("col %s bound %d: %v, want %v", name, i, g.Hist.Bounds[i], w.Hist.Bounds[i])
			}
		}
	}
	// Selectivity estimates must survive serialization unchanged.
	gk, wk := gt.Cols["k"], wt.Cols["k"]
	if g, w := gk.EqSelectivity(table.Int(3)), wk.EqSelectivity(table.Int(3)); g != w {
		t.Fatalf("EqSelectivity after round trip = %v, want %v", g, w)
	}
	if g, w := gk.RangeSelectivity("<", table.Int(20)), wk.RangeSelectivity("<", table.Int(20)); g != w {
		t.Fatalf("RangeSelectivity after round trip = %v, want %v", g, w)
	}
}

// TestLoadSidecarMissing: a directory without a sidecar reports
// os.IsNotExist so callers can fall back to scanning.
func TestLoadSidecarMissing(t *testing.T) {
	if _, err := LoadSidecar(t.TempDir()); !os.IsNotExist(err) {
		t.Fatalf("got %v, want an IsNotExist error", err)
	}
}

// TestSaveSidecarAtomic: saving leaves no temp droppings next to the final
// file.
func TestSaveSidecarAtomic(t *testing.T) {
	dir := t.TempDir()
	if err := SaveSidecar(dir, &Sidecar{Tables: map[string]*TableStats{}}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != SidecarFile {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want exactly [%s]", names, SidecarFile)
	}
	if _, err := os.Stat(filepath.Join(dir, SidecarFile)); err != nil {
		t.Fatal(err)
	}
}
