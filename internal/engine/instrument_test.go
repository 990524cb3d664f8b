package engine

import (
	"testing"

	"repro/internal/table"
)

// TestCountedTransparent: the Counted wrapper forwards every tuple
// unchanged, counts rows and batches, and preserves the stability promise.
func TestCountedTransparent(t *testing.T) {
	rel := table.NewRelation(table.NewSchema(table.DataCol("a", table.KindInt)))
	for i := 0; i < 2500; i++ {
		rel.Rows = append(rel.Rows, table.Tuple{table.Int(int64(i))})
	}

	var s OpStats
	op := Counted(NewMemScan(rel), &s)
	if !Stable(op) {
		t.Fatal("Counted over a MemScan must stay stable")
	}
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
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
