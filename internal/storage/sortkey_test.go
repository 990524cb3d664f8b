package storage

import (
	"bytes"
	"cmp"
	"math"
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
