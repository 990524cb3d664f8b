package engine

import (
	"testing"

	"repro/internal/table"
)

// TestCountedTransparent: the ColCounted wrapper forwards every row
// unchanged and counts rows and batches.
func TestCountedTransparent(t *testing.T) {
	rel := table.NewRelation(table.NewSchema(table.DataCol("a", table.KindInt)))
	for i := 0; i < 2500; i++ {
		rel.Rows = append(rel.Rows, table.Tuple{table.Int(int64(i))})
	}

	var s OpStats
	got := collect(t, &ColCounted{In: memScan(rel), S: &s})
	if got.Len() != rel.Len() {
		t.Fatalf("rows %d, want %d", got.Len(), rel.Len())
	}
	if s.Rows != int64(rel.Len()) {
		t.Fatalf("counted %d rows, want %d", s.Rows, rel.Len())
	}
	if want := int64((rel.Len() + BatchSize - 1) / BatchSize); s.Batches != want {
		t.Fatalf("counted %d batches, want %d", s.Batches, want)
	}
}
