package plan_test

import (
	"math"
	"testing"

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
