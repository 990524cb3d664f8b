package plan_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestMystiQOnDiskCatalog: the safe-plan lowering scans base tables through
// Catalog.Scan, which must read a disk-bound table's heap file — its
// in-memory relation is an empty placeholder, and scanning that made every
// MystiQ query over a disk catalog return zero rows without an error.
func TestMystiQOnDiskCatalog(t *testing.T) {
	dir := t.TempDir()
	data := tpch.Generate(tpch.Config{SF: 0.002, Seed: 4})
	if err := data.WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	disk, _, closeFiles, err := tpch.OpenDiskCatalog(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFiles()

	e := tpch.Catalog()["3"]
	spec := plan.Spec{Style: plan.SafeMystiQ}
	want, err := plan.Run(data.Catalog(), e.Q.Clone(), tpch.FDsFor(e), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(disk, e.Q.Clone(), tpch.FDsFor(e), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows.Len() == 0 {
		t.Fatal("query 3 has no answers at this scale; the test would prove nothing")
	}
	if got.Rows.Len() != want.Rows.Len() {
		t.Fatalf("MystiQ on disk returned %d rows, in memory %d", got.Rows.Len(), want.Rows.Len())
	}
	for i, w := range want.Rows.Rows {
		g := got.Rows.Rows[i]
		for c := range w {
			if g[c].String() != w[c].String() || math.Float64bits(g[c].F) != math.Float64bits(w[c].F) {
				t.Fatalf("row %d: on disk %v, in memory %v", i, g, w)
			}
		}
	}
}

// TestGovernedJoinSpanReportsGrace: a governed plan columnarizes like any
// other — its answer span says exec=columnar and the run counts column
// batches — and a join whose build the governor denied says so: its span
// carries the loose attribute grace=true, in both tiers. The same query
// ungoverned reports no grace.
func TestGovernedJoinSpanReportsGrace(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Seed: 1}).Catalog()
	e := tpch.Catalog()["18"]
	fingerprint := ""
	for _, c := range []struct {
		name     string
		budget   int64
		rowExec  bool
		wantExec string
	}{
		{"ungoverned", 0, false, "columnar"},
		{"governed", 128 << 10, false, "columnar"},
		{"governed/row", 128 << 10, true, "row"},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := plan.Spec{Style: plan.Lazy, Trace: true, MemBudget: c.budget, RowExec: c.rowExec}
			spec.Conf.TmpDir = t.TempDir()
			res, err := plan.Run(cat, e.Q.Clone(), tpch.FDsFor(e), spec)
			if err != nil {
				t.Fatal(err)
			}
			graced, exec := 0, ""
			var walk func(s *obs.Span)
			walk = func(s *obs.Span) {
				for _, a := range s.Attrs {
					switch {
					case s.Name == "join" && a.Key == "grace":
						if a.Val != "true" || a.Structural {
							t.Errorf("join span carries grace=%s structural=%v", a.Val, a.Structural)
						}
						graced++
					case strings.HasPrefix(s.Name, "answer: ") && a.Key == "exec":
						exec = a.Val
					}
				}
				for _, ch := range s.Children {
					walk(ch)
				}
			}
			walk(res.Stats.Trace.Root)
			// Everything a budget or a tier changes in the trace is loose.
			if fingerprint == "" {
				fingerprint = res.Stats.Trace.Fingerprint()
			} else if got := res.Stats.Trace.Fingerprint(); got != fingerprint {
				t.Errorf("trace fingerprint differs from the ungoverned run's:\n%s\nvs\n%s", got, fingerprint)
			}
			if exec != c.wantExec {
				t.Errorf("answer span exec=%q, want %q", exec, c.wantExec)
			}
			if (res.Stats.ColBatches > 0) != !c.rowExec || (res.Stats.RowBatches > 0) != c.rowExec {
				t.Errorf("col_batches=%d row_batches=%d under RowExec=%v", res.Stats.ColBatches, res.Stats.RowBatches, c.rowExec)
			}
			if (graced > 0) != (c.budget > 0) {
				t.Errorf("%d join spans report grace under MemBudget=%d\n%s", graced, c.budget, res.Stats.Trace.Render(false))
			}
		})
	}
}
