package storage

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// FuzzColRecord checks the column-cell record encoder against the tuple
// one: for rows of a seeded random schema — every kind, a NULL column
// included, the fuzzer's string, int and float among their values, NULLs
// sprinkled in — laid out as a column batch with fuzzer-chosen string
// layouts under a fuzzer-chosen selection vector, the record of every live
// row equals EncodeTuple of the materialized row, byte for byte, and
// FieldIter decodes it back into the row that went in.
func FuzzColRecord(f *testing.F) {
	f.Add(int64(1), "a\x00b", int64(-1), 0.5, uint16(0), uint64(0))
	f.Add(int64(2), "", int64(math.MinInt64), math.Copysign(0, -1), uint16(0b0110_1101_1001), uint64(0x5555))
	f.Add(int64(3), "\xff\x00", int64(math.MaxInt64), math.Inf(-1), uint16(0xffff), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, s string, iv int64, fv float64, layouts uint16, drop uint64) {
		rng := rand.New(rand.NewSource(seed))
		kinds, rows := fuzzRows(rng, []table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool, table.KindNull}, s, iv, fv)
		b := fuzzBatch(kinds, rows, layouts)
		dropRows(b, drop)
		row := make(table.Tuple, len(kinds))
		var rec, want []byte
		for i := 0; i < b.Rows(); i++ {
			b.WriteRow(i, row)
			rec = AppendColRecord(rec[:0], b, b.RowID(i))
			want = EncodeTuple(want[:0], row)
			if !bytes.Equal(rec, want) {
				t.Fatalf("live row %d %v (layouts %#x):\n  cell record  % x\n  tuple record % x", i, row, layouts, rec, want)
			}
			it, err := NewFieldIter(rec)
			if err != nil {
				t.Fatal(err)
			}
			if it.Len() != len(kinds) {
				t.Fatalf("live row %d: record of %d fields, want %d", i, it.Len(), len(kinds))
			}
			in := rows[b.RowID(i)]
			for c := range kinds {
				f, ok, err := it.Next()
				if err != nil || !ok {
					t.Fatalf("live row %d field %d: ok=%v err=%v", i, c, ok, err)
				}
				if got := f.Value(); got.Kind != in[c].Kind || got.String() != in[c].String() {
					t.Fatalf("live row %d field %d decodes as %v, want %v", i, c, got, in[c])
				}
			}
			if _, ok, err := it.Next(); ok || err != nil {
				t.Fatalf("live row %d: a field past the last (ok=%v err=%v)", i, ok, err)
			}
		}
	})
}
