package storage

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// checkKeyOrder asserts the codec's contract on one pair: byte order of the
// keys equals table.CompareOn order, and distinct keys are prefix-free.
func checkKeyOrder(t *testing.T, a, b table.Tuple, cols []int) {
	t.Helper()
	ka, kb := AppendSortKey(nil, a, cols), AppendSortKey(nil, b, cols)
	got, want := cmp.Compare(bytes.Compare(ka, kb), 0), cmp.Compare(table.CompareOn(a, b, cols), 0)
	if got != want {
		t.Fatalf("key order %d, CompareOn %d for %v vs %v on %v\n  key(a)=% x\n  key(b)=% x", got, want, a, b, cols, ka, kb)
	}
	if got != 0 && (bytes.HasPrefix(ka, kb) || bytes.HasPrefix(kb, ka)) {
		t.Fatalf("keys of %v and %v are not prefix-free:\n  % x\n  % x", a, b, ka, kb)
	}
}

// keyEdgeValues lists, per kind, the values the encoding has to get right:
// NULL, the integer extremes and sign change, ±0, ±Inf, denormals, the
// empty string, embedded 0x00 and 0xFF, and strings that are prefixes of
// one another.
var keyEdgeValues = [][]table.Value{
	{table.Null(), table.Int(math.MinInt64), table.Int(-256), table.Int(-1), table.Int(0),
		table.Int(1), table.Int(255), table.Int(256), table.Int(math.MaxInt64)},
	{table.Null(), table.Float(math.Inf(-1)), table.Float(-math.MaxFloat64), table.Float(-1),
		table.Float(-math.SmallestNonzeroFloat64), table.Float(math.Copysign(0, -1)), table.Float(0),
		table.Float(math.SmallestNonzeroFloat64), table.Float(2.2250738585072014e-308), table.Float(1),
		table.Float(math.MaxFloat64), table.Float(math.Inf(1))},
	{table.Null(), table.Str(""), table.Str("\x00"), table.Str("\x00\x00"), table.Str("\x00\xff"),
		table.Str("\x01"), table.Str("a"), table.Str("a\x00"), table.Str("a\x00b"), table.Str("a\x01"),
		table.Str("a\xff"), table.Str("ab"), table.Str("b"), table.Str("\xff"), table.Str("\xff\xff")},
	{table.Null(), table.Bool(false), table.Bool(true)},
}

// TestSortKeyOrderSingleColumn: every pair of edge values of one kind.
func TestSortKeyOrderSingleColumn(t *testing.T) {
	for _, vals := range keyEdgeValues {
		for _, a := range vals {
			for _, b := range vals {
				checkKeyOrder(t, table.Tuple{a}, table.Tuple{b}, []int{0})
			}
		}
	}
}

// TestSortKeyOrderTwoColumns: every pair of two-column tuples over every
// pair of kinds — the earlier column ties on the diagonal, and a string
// that ends where another continues meets the next column's bytes.
func TestSortKeyOrderTwoColumns(t *testing.T) {
	for _, first := range keyEdgeValues {
		for _, second := range keyEdgeValues {
			var tuples []table.Tuple
			for _, x := range first {
				for _, y := range second {
					tuples = append(tuples, table.Tuple{x, y})
				}
			}
			for _, a := range tuples {
				for _, b := range tuples {
					checkKeyOrder(t, a, b, []int{0, 1})
					checkKeyOrder(t, a, b, []int{1, 0})
				}
			}
		}
	}
}

// FuzzSortKeyOrder checks the order contract on fuzzer-chosen three-column
// tuples (string, int, float — one kind per column, as the codec requires).
// nulls blanks individual fields (bits 0-2 of a, 3-5 of b); order picks
// which column leads, so every kind is exercised behind a tie.
func FuzzSortKeyOrder(f *testing.F) {
	f.Add("a", int64(1), 0.5, "a\x00", int64(-1), -0.5, uint8(0), uint8(0))
	f.Add("", int64(0), 0.0, "", int64(0), math.Copysign(0, -1), uint8(0), uint8(2))
	f.Add("ab", int64(math.MinInt64), math.Inf(1), "ab\xff", int64(math.MaxInt64), math.Inf(-1), uint8(0b001001), uint8(1))
	f.Fuzz(func(t *testing.T, as string, ai int64, af float64, bs string, bi int64, bf float64, nulls, order uint8) {
		if math.IsNaN(af) || math.IsNaN(bf) {
			t.Skip("table.Compare leaves NaN unordered")
		}
		a := table.Tuple{table.Str(as), table.Int(ai), table.Float(af)}
		b := table.Tuple{table.Str(bs), table.Int(bi), table.Float(bf)}
		for i := range a {
			if nulls&(1<<i) != 0 {
				a[i] = table.Null()
			}
			if nulls&(8<<i) != 0 {
				b[i] = table.Null()
			}
		}
		orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		checkKeyOrder(t, a, b, orders[int(order)%len(orders)])
	})
}

// fuzzBatch lays rows out as a column batch by hand, in the typed vector of
// each column's kind; a string column takes shared headers, dictionary
// codes or flat bytes as picked by layouts (two bits per column, modulo
// three). NULLs set the bitmap over a zero placeholder, as the appenders
// do.
func fuzzBatch(kinds []table.Kind, rows []table.Tuple, layouts uint16) *table.ColBatch {
	cols := make([]table.Column, len(kinds))
	for c, k := range kinds {
		cols[c] = table.DataCol("", k)
	}
	b := table.NewColBatch(table.NewSchema(cols...))
	b.N = len(rows)
	for c, k := range kinds {
		v := &b.Cols[c]
		layout := (layouts >> (2 * c) & 3) % 3
		codes := map[string]int{}
		v.Offs = append(v.Offs, 0)
		for i, r := range rows {
			val := r[c]
			if val.Kind == table.KindNull {
				for len(v.Nulls) <= i>>6 {
					v.Nulls = append(v.Nulls, 0)
				}
				v.Nulls[i>>6] |= 1 << (i & 63)
			}
			switch k {
			case table.KindInt, table.KindBool:
				v.Ints = append(v.Ints, val.I)
			case table.KindFloat:
				v.Floats = append(v.Floats, val.F)
			default:
				v.Mode = []table.StrMode{table.StrHeader, table.StrDict, table.StrFlat}[layout]
				v.Strs = append(v.Strs, val.S)
				if _, ok := codes[val.S]; !ok {
					codes[val.S] = len(v.Dict)
					v.Dict = append(v.Dict, val.S)
				}
				v.Codes = append(v.Codes, byte(codes[val.S]))
				v.Bytes = append(v.Bytes, val.S...)
				v.Offs = append(v.Offs, int32(len(v.Bytes)))
			}
		}
	}
	return b
}

// FuzzBatchSortKey checks the column-vector key codec against the tuple
// one: for rows of a seeded random schema — the fuzzer's string, int and
// float among their values, NULLs sprinkled in — laid out as a column batch
// in fuzzer-chosen layouts (typed vectors, the three string layouts) under a
// fuzzer-chosen selection vector, the key of every
// live row equals AppendSortKey of the materialized row, byte for byte, and
// the materialized row is the row that went in.
func FuzzBatchSortKey(f *testing.F) {
	f.Add(int64(1), "a\x00b", int64(-1), 0.5, uint16(0), uint64(0))
	f.Add(int64(2), "", int64(math.MinInt64), math.Copysign(0, -1), uint16(0b0110_1101_1001), uint64(0x5555))
	f.Add(int64(3), "\xff\x00", int64(math.MaxInt64), math.Inf(-1), uint16(0xffff), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, s string, iv int64, fv float64, layouts uint16, drop uint64) {
		rng := rand.New(rand.NewSource(seed))
		kinds := make([]table.Kind, 1+rng.Intn(6))
		for c := range kinds {
			kinds[c] = []table.Kind{table.KindInt, table.KindFloat, table.KindString, table.KindBool}[rng.Intn(4)]
		}
		strs := []string{s, "", s + "\x00", "k", "k\x00\xff"}
		rows := make([]table.Tuple, 1+rng.Intn(64))
		for i := range rows {
			rows[i] = make(table.Tuple, len(kinds))
			for c, k := range kinds {
				switch {
				case rng.Intn(6) == 0:
					rows[i][c] = table.Null()
				case k == table.KindInt:
					rows[i][c] = table.Int([]int64{iv, -iv, 0, rng.Int63()}[rng.Intn(4)])
				case k == table.KindFloat:
					rows[i][c] = table.Float([]float64{fv, -fv, 0, rng.NormFloat64()}[rng.Intn(4)])
				case k == table.KindString:
					rows[i][c] = table.Str(strs[rng.Intn(len(strs))])
				default:
					rows[i][c] = table.Bool(rng.Intn(2) == 0)
				}
			}
		}
		b := fuzzBatch(kinds, rows, layouts)
		if drop != 0 { // a selection vector: drop the physical rows whose bit is set
			b.Sel = []int32{}
			for i := range rows {
				if drop>>(i&63)&1 == 0 {
					b.Sel = append(b.Sel, int32(i))
				}
			}
		}
		cols := rng.Perm(len(kinds))[:1+rng.Intn(len(kinds))]
		got := make(table.Tuple, len(kinds))
		for i := 0; i < b.Rows(); i++ {
			b.WriteRow(i, got)
			if want := rows[b.RowID(i)]; got.String() != want.String() {
				t.Fatalf("live row %d materializes as %v, want %v", i, got, want)
			}
			kb, kt := AppendColSortKey(nil, b, b.RowID(i), cols), AppendSortKey(nil, got, cols)
			if !bytes.Equal(kb, kt) {
				t.Fatalf("live row %d %v on %v (layouts %#x):\n  batch key % x\n  tuple key % x", i, got, cols, layouts, kb, kt)
			}
		}
	})
}
