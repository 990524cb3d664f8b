package plan_test

import (
	"math"
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

// TestGovernedJoinSpanReportsGrace: a governed plan runs the same pipeline
// as any other — its join spans count the batches they moved — and a join
// whose build the governor denied says so: its span carries the loose
// attribute grace=true. The same query ungoverned reports no grace, and
// nothing a budget changes in the trace is structural. governed/row sets
// Spec.RowExec, which the benchmark's reference runs still set: it must
// change nothing.
func TestGovernedJoinSpanReportsGrace(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Seed: 1}).Catalog()
	e := tpch.Catalog()["18"]
	fingerprint := ""
	for _, c := range []struct {
		name    string
		budget  int64
		rowExec bool
	}{
		{"ungoverned", 0, false},
		{"governed", 128 << 10, false},
		{"governed/row", 128 << 10, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := plan.Spec{Style: plan.Lazy, Trace: true, MemBudget: c.budget, RowExec: c.rowExec}
			spec.Conf.TmpDir = t.TempDir()
			res, err := plan.Run(cat, e.Q.Clone(), tpch.FDsFor(e), spec)
			if err != nil {
				t.Fatal(err)
			}
			graced, joins, counted := 0, 0, 0
			var walk func(s *obs.Span)
			walk = func(s *obs.Span) {
				if s.Name == "join" {
					joins++
				}
				for _, a := range s.Attrs {
					switch {
					case s.Name == "join" && a.Key == "grace":
						if a.Val != "true" || a.Structural {
							t.Errorf("join span carries grace=%s structural=%v", a.Val, a.Structural)
						}
						graced++
					case s.Name == "join" && a.Key == "batches" && a.Val != "0":
						counted++
					}
				}
				for _, ch := range s.Children {
					walk(ch)
				}
			}
			walk(res.Stats.Trace.Root)
			if fingerprint == "" {
				fingerprint = res.Stats.Trace.Fingerprint()
			} else if got := res.Stats.Trace.Fingerprint(); got != fingerprint {
				t.Errorf("trace fingerprint differs from the ungoverned run's:\n%s\nvs\n%s", got, fingerprint)
			}
			if joins == 0 || counted != joins {
				t.Errorf("%d of %d join spans count their batches", counted, joins)
			}
			if (graced > 0) != (c.budget > 0) {
				t.Errorf("%d join spans report grace under MemBudget=%d\n%s", graced, c.budget, res.Stats.Trace.Render(false))
			}
		})
	}
}
