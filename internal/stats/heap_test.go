package stats_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/tpch"
)

// writeHeap stores pt's rows as a heap file under dir and returns its path.
func writeHeap(t *testing.T, dir string, pt *table.ProbTable) string {
	t.Helper()
	path := filepath.Join(dir, pt.Name+".heap")
	h, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	row := make(table.Tuple, pt.Rel.Schema.Len())
	for _, c := range pt.Rel.Chunks {
		for i := 0; i < c.Rows(); i++ {
			c.WriteRow(i, row)
			if err := h.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeHeapFileMatchesInMemory: ANALYZE over a table's heap file —
// string cells decoded into dictionary or flat layouts — yields exactly the
// statistics of ANALYZE over its in-memory chunks: row count, widths,
// distinct counts, min/max, histogram bounds and the variable ceiling.
func TestAnalyzeHeapFileMatchesInMemory(t *testing.T) {
	tables := append([]*table.ProbTable{stats.UniformTable(500)},
		tpch.Generate(tpch.Config{SF: 0.002, Seed: 1}).Tables()...)
	dir := t.TempDir()
	for _, pt := range tables {
		path := writeHeap(t, dir, pt)
		disk, err := stats.AnalyzeHeapFile(path, pt.Name, pt.Rel.Schema, storage.NewBufferPool(8))
		if err != nil {
			t.Fatal(err)
		}
		if mem := stats.Analyze(pt); !reflect.DeepEqual(disk, mem) {
			t.Errorf("%s: heap-file stats differ:\\n%+v\\nvs in memory\\n%+v", pt.Name, disk, mem)
		}
	}
}
