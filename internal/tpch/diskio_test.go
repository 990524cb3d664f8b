package tpch

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/table"
)

func removeSidecar(dir string) error {
	return os.Remove(filepath.Join(dir, stats.SidecarFile))
}

// TestHeapFileRoundTrip: generating, persisting to page-structured heap
// files, and loading back yields a catalog over which query results match
// the in-memory ones exactly — the full secondary-storage round trip.
func TestHeapFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mem := Generate(Config{SF: 0.002, Seed: 33})
	if err := mem.WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	disk, err := LoadHeapFiles(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range mem.Tables() {
		dt := disk.Tables()[i]
		if tb.Rel.Len() != dt.Rel.Len() {
			t.Fatalf("%s: %d rows in memory, %d on disk", tb.Name, tb.Rel.Len(), dt.Rel.Len())
		}
	}
	// Same query, same answers.
	e := Catalog()["18"]
	sigma := FDsFor(e)
	memRes, err := plan.Run(mem.Catalog(), e.Q.Clone(), sigma, plan.Spec{Style: plan.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	diskRes, err := plan.Run(disk.Catalog(), e.Q.Clone(), sigma, plan.Spec{Style: plan.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	if err := compareAnswers(memRes.Rows.Rows, diskRes.Rows.Rows); err != nil {
		t.Fatal(err)
	}
}

func TestLoadHeapFilesMissingDir(t *testing.T) {
	if _, err := LoadHeapFiles(t.TempDir(), 8); err == nil {
		t.Error("loading from an empty directory must fail")
	}
}

// TestOpenDiskCatalog: a catalog whose tables stay on disk — scans paging
// through the buffer pool, statistics from the sidecar — answers queries
// with exactly the in-memory catalog's confidences, through both the
// columnar tier (default) and the forced row path, which agree bit for bit,
// and reports the instance's world-variable count without scanning.
func TestOpenDiskCatalog(t *testing.T) {
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
	for _, name := range []string{"1", "B6", "15", "18"} {
		e := Catalog()[name]
		sigma := FDsFor(e)
		memRes, err := plan.Run(mem.Catalog(), e.Q.Clone(), sigma, plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Fatalf("%s mem: %v", name, err)
		}
		var colRows []table.Tuple
		for _, spec := range []plan.Spec{
			{Style: plan.Lazy},
			{Style: plan.Lazy, RowExec: true},
		} {
			diskRes, err := plan.Run(cat, e.Q.Clone(), sigma, spec)
			if err != nil {
				t.Fatalf("%s disk (rowExec=%v): %v", name, spec.RowExec, err)
			}
			if err := compareAnswers(memRes.Rows.Rows, diskRes.Rows.Rows); err != nil {
				t.Fatalf("%s (rowExec=%v): %v", name, spec.RowExec, err)
			}
			if !spec.RowExec {
				colRows = diskRes.Rows.Rows
			} else if !slices.EqualFunc(colRows, diskRes.Rows.Rows, slices.Equal[table.Tuple]) {
				t.Fatalf("%s: the row tier's answers differ from the columnar tier's", name)
			}
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
