package tpch

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/table"
)

func removeSidecar(dir string) error {
	return os.Remove(filepath.Join(dir, stats.SidecarFile))
}

// TestOpenDiskCatalog: a catalog whose tables stay on disk — scans paging
// through the buffer pool, statistics from the sidecar — holds every
// table's rows, answers queries with exactly the in-memory catalog's
// confidences, and reports the instance's world-variable count without
// scanning. A directory without heap files does not open.
func TestOpenDiskCatalog(t *testing.T) {
	if _, _, _, err := OpenDiskCatalog(t.TempDir(), 8); err == nil {
		t.Error("opening an empty directory must fail")
	}
	dir := t.TempDir()
	mem := Generate(Config{SF: 0.002, Seed: 33})
	if err := mem.WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	cat, numVars, closeFiles, err := OpenDiskCatalog(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFiles()
	if numVars != mem.NumVars {
		t.Fatalf("numVars = %d, want %d (sidecar ceiling)", numVars, mem.NumVars)
	}
	for _, tb := range mem.Tables() {
		if got := cat.Rows(tb.Name); got != tb.Rel.Len() {
			t.Fatalf("%s: %d rows in memory, %d on disk", tb.Name, tb.Rel.Len(), got)
		}
	}
	for _, name := range []string{"1", "B6", "15", "18"} {
		e := Catalog()[name]
		sigma := FDsFor(e)
		memRes, err := plan.Run(mem.Catalog(), e.Q.Clone(), sigma, plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Fatalf("%s mem: %v", name, err)
		}
		diskRes, err := plan.Run(cat, e.Q.Clone(), sigma, plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Fatalf("%s disk: %v", name, err)
		}
		if err := compareAnswers(memRes.Rows.Rows, diskRes.Rows.Rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Without the sidecar the catalog analyzes each heap file itself and
	// still lands on the same variable ceiling.
	if err := removeSidecar(dir); err != nil {
		t.Fatal(err)
	}
	cat2, numVars2, closeFiles2, err := OpenDiskCatalog(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFiles2()
	_ = cat2
	if numVars2 != mem.NumVars {
		t.Fatalf("numVars without sidecar = %d, want %d", numVars2, mem.NumVars)
	}
}

// TestSidecarGolden pins the stats.json that WriteHeapFiles writes for SF
// 0.002, seed 1 to its bytes: the row counts, widths, distinct counts,
// min/max and histogram bounds of every table, as ANALYZE computed them
// when base tables were still stored as rows.
func TestSidecarGolden(t *testing.T) {
	const golden = "09610fd09785fe9a55255b8e7f9198abc058b1bd03f7e1e950d73af650e36e6d"
	dir := t.TempDir()
	if err := Generate(Config{SF: 0.002, Seed: 1}).WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, stats.SidecarFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != golden {
		t.Fatalf("%s: sha256 %s, want %s", stats.SidecarFile, got, golden)
	}
}

// TestHeapFileGolden pins every heap file WriteHeapFiles writes for SF
// 0.002, seed 1 to its bytes, in the column-page format, and reads each one
// back through engine.ColHeapScan: the scan must return the generated
// chunks' rows cell for cell, in order, so that a re-pin cannot hide a lost
// or reordered row.
func TestHeapFileGolden(t *testing.T) {
	golden := map[string]string{
		"Cust.heap":   "7a093c1be8e1b1a710222a3dcf89315052ca4af162ec7dee8eccd6de1dd41d41",
		"Item.heap":   "2500924e84409f0fdc39dbb2c1604ca6cd1fe436ba57da1f75068aba04158e01",
		"Nation.heap": "840d56a2de798a64977eb9a5ae3172ee37a07fbe9e36d713ca6b76d98acee135",
		"Ord.heap":    "f77f94226dff1fc0202fbe2d49d4cce66872945be21f7e40db52dbab34d95841",
		"Part.heap":   "32b4211351251e8ae7c6fec74d6c5f32b5458f14310bb09ea56b815e729d7eaa",
		"Psupp.heap":  "dce19b8d018d9edd911ff0d0578fab155b289e5221fe094061f53886c92c00c0",
		"Region.heap": "9f62291564bec3442784650de4fce79ca2a9af28f8ac399b3dedc0ee64cc483b",
		"Supp.heap":   "c1dfc2b5a886ac6fa04c5fb4b7e9a4e692c7b785f497bdae9e5bfe43c276a49f",
	}
	dir := t.TempDir()
	data := Generate(Config{SF: 0.002, Seed: 1})
	if err := data.WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	for _, tb := range data.Tables() {
		sameAsChunks(t, filepath.Join(dir, tb.Name+".heap"), tb)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.heap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(golden) {
		t.Fatalf("%d heap files written, want %d", len(files), len(golden))
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != golden[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, golden[name])
		}
	}
}

// sameAsChunks scans the heap file at path with engine.ColHeapScan and
// fails unless it holds exactly tb's chunk rows, in order, every cell of
// the same kind and bits.
func sameAsChunks(t *testing.T, path string, tb *table.ProbTable) {
	t.Helper()
	h, err := storage.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sc := engine.NewColHeapScan(h, storage.NewBufferPool(4), tb.Rel.Schema)
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var b table.ColBatch
	chunk, row, at := 0, 0, 0
	for {
		n, err := sc.NextColBatch(&b)
		if err != nil {
			t.Fatalf("%s: %v", tb.Name, err)
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			for chunk < len(tb.Rel.Chunks) && row == tb.Rel.Chunks[chunk].Rows() {
				chunk, row = chunk+1, 0
			}
			if chunk == len(tb.Rel.Chunks) {
				t.Fatalf("%s: the heap file holds more than the %d generated rows", tb.Name, at)
			}
			c := tb.Rel.Chunks[chunk]
			for col := range b.Cols {
				got, want := b.Cols[col].Value(b.RowID(i)), c.Cols[col].Value(c.RowID(row))
				if got.Kind != want.Kind || got.I != want.I || got.S != want.S || math.Float64bits(got.F) != math.Float64bits(want.F) {
					t.Fatalf("%s: row %d column %s reads %v, generated %v", tb.Name, at, tb.Rel.Schema.Cols[col].Name, got, want)
				}
			}
			row++
			at++
		}
	}
	for ; chunk < len(tb.Rel.Chunks); chunk, row = chunk+1, 0 {
		if row < tb.Rel.Chunks[chunk].Rows() {
			t.Fatalf("%s: the heap file holds %d rows, fewer than generated", tb.Name, at)
		}
	}
}
