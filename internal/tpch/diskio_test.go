package tpch

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/plan"
	"repro/internal/stats"
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
// 0.002, seed 1 to its bytes, as the tuple encoder wrote them before rows
// were encoded straight from the tables' column chunks.
func TestHeapFileGolden(t *testing.T) {
	golden := map[string]string{
		"Cust.heap":   "d7eca741640371437acb2029f5b269e55b2bb1ad06dbdbe631d03b4483c5a809",
		"Item.heap":   "bd84b79cd0d7fa8d1800192231ddcbbfc08d54ae67e48b61b5f529b158507e80",
		"Nation.heap": "03abe9a912e9e4535c1a2cdc4789126708ba2652b36a2e4c23b490bab1bee3c0",
		"Ord.heap":    "8088ce9b37410fa283b5b4f928dbba540f540f802b471d618fa7d903b4d172b1",
		"Part.heap":   "bfd50322494e7bb8a5e0baf4c64144378ec00c024d009d26551f6fb9097dba5f",
		"Psupp.heap":  "3d0fcab7fef383dd0201b665bdd536d3cfd51597a4e22d6c08648d15a4846c11",
		"Region.heap": "32e65f009f210e868b88644bd29ecab05ef15f3a32fbe21ad47bab8ee841b30c",
		"Supp.heap":   "958b0cb4bb434ccdfde4206c9c21ca2f3cd367192d17c781490a8e7bbe131662",
	}
	dir := t.TempDir()
	if err := Generate(Config{SF: 0.002, Seed: 1}).WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
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
