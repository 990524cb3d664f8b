package table

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// colBatchSchema covers every kind the columnar layouts specialize on.
func colBatchSchema() *Schema {
	return NewSchema(
		DataCol("i", KindInt),
		DataCol("f", KindFloat),
		DataCol("s", KindString),
		DataCol("b", KindBool),
	)
}

// randomColTuple draws a tuple over colBatchSchema, with occasional NULLs and
// a string pool sized by card.
func randomColTuple(rng *rand.Rand, card int) Tuple {
	t := Tuple{
		Int(rng.Int63n(1000) - 500),
		Float(rng.Float64()*10 - 5),
		Str(fmt.Sprintf("s-%04d", rng.Intn(card))),
		Bool(rng.Intn(2) == 0),
	}
	if rng.Intn(10) == 0 {
		t[rng.Intn(len(t))] = Null()
	}
	return t
}

// TestColBatchRowRoundTrip: AppendRow → WriteRow/Value reproduces every cell
// bit-identically across all layouts, including NULLs, at a low and a high
// string cardinality.
func TestColBatchRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, card := range []int{8, 306} {
		sch := colBatchSchema()
		b := NewColBatch(sch)
		var rows []Tuple
		for i := 0; i < 700; i++ {
			tu := randomColTuple(rng, card)
			rows = append(rows, tu)
			b.AppendRow(tu)
		}
		if b.Rows() != len(rows) {
			t.Fatalf("card=%d: %d live rows, want %d", card, b.Rows(), len(rows))
		}
		dst := make(Tuple, sch.Len())
		for i, want := range rows {
			b.WriteRow(i, dst)
			for c := range want {
				if dst[c] != want[c] {
					t.Fatalf("card=%d: row %d col %d = %v, want %v", card, i, c, dst[c], want[c])
				}
				if got := b.Cols[c].Value(i); got != want[c] {
					t.Fatalf("card=%d: Value(%d) col %d = %v, want %v", card, i, c, got, want[c])
				}
			}
		}
	}
}

// TestColBatchStrBytesLayouts: the heap-scan byte append lands in the flat
// layout at low and high cardinality alike, preserving every cell, and so
// does the first append after a Reset; a column that already holds shared
// headers takes the bytes as a header.
func TestColBatchStrBytesLayouts(t *testing.T) {
	sch := NewSchema(DataCol("s", KindString))
	b := NewColBatch(sch)
	var want []string
	for i := 0; i < 64; i++ {
		s := fmt.Sprintf("low-%02d", i%8)
		b.Cols[0].AppendStrBytes([]byte(s))
		want = append(want, s)
		b.N++
	}
	if b.Cols[0].Mode != StrFlat {
		t.Fatalf("low-cardinality column mode = %v, want StrFlat", b.Cols[0].Mode)
	}
	for i := 256; i >= 0; i-- {
		s := fmt.Sprintf("wide-%04d", i)
		b.Cols[0].AppendStrBytes([]byte(s))
		want = append(want, s)
		b.N++
	}
	if b.Cols[0].Mode != StrFlat {
		t.Fatalf("high-cardinality column mode = %v, want StrFlat", b.Cols[0].Mode)
	}
	for i, s := range want {
		if got := b.Cols[0].Value(i); got.S != s {
			t.Fatalf("cell %d = %q, want %q", i, got.S, s)
		}
	}
	b.Reset(sch)
	b.Cols[0].AppendStrBytes([]byte("after"))
	b.N = 1
	if b.Cols[0].Mode != StrFlat {
		t.Fatalf("after Reset: mode = %v, want StrFlat", b.Cols[0].Mode)
	}
	if got := b.Cols[0].Value(0); got.S != "after" {
		t.Fatalf("after Reset: cell = %q, want %q", got.S, "after")
	}
	b.Reset(sch)
	b.Cols[0].AppendValue(0, Str("header"))
	b.Cols[0].AppendStrBytes([]byte("bytes"))
	b.N = 2
	if b.Cols[0].Mode != StrHeader || len(b.Cols[0].Strs) != 2 {
		t.Fatalf("bytes after a header: mode = %v with %d headers, want StrHeader with 2", b.Cols[0].Mode, len(b.Cols[0].Strs))
	}
	if got := b.Cols[0].Value(1); got.S != "bytes" {
		t.Fatalf("bytes after a header: cell = %q, want %q", got.S, "bytes")
	}
}

// TestColVecTypedAppends: boxed and unboxed appends land in typed storage, and
// AppendValue refuses a cell whose kind is not the column's.
func TestColVecTypedAppends(t *testing.T) {
	sch := NewSchema(DataCol("i", KindInt), DataCol("f", KindFloat), DataCol("b", KindBool))
	b := NewColBatch(sch)
	b.Cols[0].AppendValue(0, Int(42))
	b.Cols[1].AppendFloat(2.5)
	b.Cols[2].AppendValue(0, Bool(true))
	b.N = 1
	for c, want := range []Value{Int(42), Float(2.5), Bool(true)} {
		if got := b.Cols[c].Value(0); got != want {
			t.Fatalf("col %d = %v, want %v", c, got, want)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "float value 1.5 appended to a column of kind int") {
			t.Fatalf("AppendValue of a float to an int column: recovered %v", r)
		}
	}()
	b.Cols[0].AppendValue(1, Float(1.5))
}

// TestColVecCompareValueMatchesCompare: CompareValue must order any cell
// against any constant exactly as Compare orders the materialized values —
// the property the vectorized filter's correctness rests on.
func TestColVecCompareValueMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	consts := []Value{
		Null(), Int(0), Int(-3), Float(0.25), Float(-2), Str(""), Str("s-0100"),
		Str("zzz"), Bool(true), Bool(false),
	}
	for _, card := range []int{8, 306} {
		b := NewColBatch(colBatchSchema())
		var rows []Tuple
		for i := 0; i < 400; i++ {
			tu := randomColTuple(rng, card)
			rows = append(rows, tu)
			b.AppendRow(tu)
		}
		for i, row := range rows {
			for c := range row {
				for _, k := range consts {
					want := Compare(row[c], k)
					if got := b.Cols[c].CompareValue(i, k); got != want {
						t.Fatalf("card=%d row %d col %d vs %v: CompareValue=%d, Compare=%d",
							card, i, c, k, got, want)
					}
				}
			}
		}
	}
}

// layoutCol builds a one-column batch of the given kind holding vals, with
// string cells in the given layout: StrHeader appends Values, StrFlat
// appends raw bytes. vals must not start with a NULL, which would settle a
// string column on the header layout.
func layoutCol(t *testing.T, kind Kind, mode StrMode, vals []Value) *ColVec {
	t.Helper()
	sch := NewSchema(DataCol("c", kind))
	b := NewColBatch(sch)
	for _, v := range vals {
		if v.Kind == KindString && mode != StrHeader {
			b.Cols[0].AppendStrBytes([]byte(v.S))
		} else {
			b.Cols[0].AppendValue(b.N, v)
		}
		b.N++
	}
	if kind == KindString && b.Cols[0].Mode != mode {
		t.Fatalf("string column in layout %d, want %d", b.Cols[0].Mode, mode)
	}
	return &b.Cols[0]
}

// TestColVecCompareCellMatchesCompare: CompareCell must order any cell
// against any cell of any kind and layout exactly as Compare orders the
// materialized values — NULL equals NULL, 3 equals 3.0, -0 equals +0, and
// strings compare byte-wise whichever layouts hold them — the hash join's
// key equality rests on it.
func TestColVecCompareCellMatchesCompare(t *testing.T) {
	strs := []Value{Str("b"), Str(""), Str("a"), Null(), Str("ab"), Str("s-0100"), Str("b")}
	cols := []struct {
		name string
		kind Kind
		mode StrMode
		vals []Value
	}{
		{"int", KindInt, StrNone, []Value{Int(3), Int(0), Null(), Int(-1), Int(2)}},
		{"float", KindFloat, StrNone, []Value{Float(3), Float(math.Copysign(0, -1)), Float(0), Null(), Float(2.5), Float(-1)}},
		{"bool", KindBool, StrNone, []Value{Bool(true), Null(), Bool(false)}},
		{"null", KindNull, StrNone, []Value{Null(), Null()}},
		{"header", KindString, StrHeader, strs},
		{"flat", KindString, StrFlat, strs},
	}
	for _, a := range cols {
		av := layoutCol(t, a.kind, a.mode, a.vals)
		for _, b := range cols {
			bv := layoutCol(t, b.kind, b.mode, b.vals)
			for i, x := range a.vals {
				for j, y := range b.vals {
					if got, want := av.CompareCell(i, bv, j), Compare(x, y); got != want {
						t.Errorf("%s[%d]=%v vs %s[%d]=%v: CompareCell=%d, Compare=%d", a.name, i, x, b.name, j, y, got, want)
					}
				}
			}
		}
	}
}

// TestColBatchHashIntoMatchesHashOn: batch hashing feeds FNV-1a the exact
// byte sequence HashOn feeds it — with and without a selection vector — so
// a row hashes alike as a tuple and in any batch: a hash join's build
// chunks and its probe batches meet in one index.
func TestColBatchHashIntoMatchesHashOn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, card := range []int{8, 306} {
		b := NewColBatch(colBatchSchema())
		var rows []Tuple
		for i := 0; i < 500; i++ {
			tu := randomColTuple(rng, card)
			rows = append(rows, tu)
			b.AppendRow(tu)
		}
		idxSets := [][]int{{0}, {2}, {1, 3}, {0, 1, 2, 3}}
		check := func(label string) {
			for _, idx := range idxSets {
				hs := b.HashInto(idx, nil)
				if len(hs) != b.Rows() {
					t.Fatalf("%s idx=%v: %d hashes, want %d", label, idx, len(hs), b.Rows())
				}
				for i := range hs {
					want := HashOn(rows[b.RowID(i)], idx)
					if hs[i] != want {
						t.Fatalf("%s idx=%v live row %d: hash %#x, want %#x", label, idx, i, hs[i], want)
					}
				}
			}
		}
		check("full")
		sel := make([]int32, 0, b.N)
		for i := 0; i < b.N; i += 3 {
			sel = append(sel, int32(i))
		}
		b.Sel = sel
		check("selected")
	}
}

// TestColVecAppendCell: gathering cells across batches (the join output path)
// reproduces the source cells for every layout, including flat-string
// byte-wise moves and NULLs.
func TestColVecAppendCell(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := NewColBatch(colBatchSchema())
	var rows []Tuple
	for i := 0; i < 300; i++ {
		tu := randomColTuple(rng, 296)
		rows = append(rows, tu)
		src.AppendRow(tu)
	}
	out := NewColBatch(colBatchSchema())
	for i := len(rows) - 1; i >= 0; i-- { // gather in reverse order
		for c := range out.Cols {
			out.Cols[c].AppendCell(out.N, &src.Cols[c], i)
		}
		out.N++
	}
	dst := make(Tuple, len(rows[0]))
	for i := 0; i < out.N; i++ {
		out.WriteRow(i, dst)
		want := rows[len(rows)-1-i]
		for c := range want {
			if dst[c] != want[c] {
				t.Fatalf("gathered row %d col %d = %v, want %v", i, c, dst[c], want[c])
			}
		}
	}
}

// TestColVecReuse: a vector cleared for reuse by another column starts
// over like a new one — its string layout undecided again, and no string
// headers left in its storage, where a batch's Reset only truncates them.
func TestColVecReuse(t *testing.T) {
	var v ColVec
	v.reset(KindString)
	for i := 0; i < 257; i++ {
		v.AppendStrBytes([]byte(fmt.Sprint("s", i)))
	}
	if v.Mode != StrFlat {
		t.Fatalf("raw string bytes left the column in layout %d, want flat", v.Mode)
	}
	v.Reuse(KindString)
	v.AppendValue(0, Str("x"))
	if v.Mode != StrHeader || len(v.Strs) != 1 || len(v.Bytes)+len(v.Offs) != 0 {
		t.Fatalf("after Reuse: layout %d with %d headers and %d flat bytes, want one header", v.Mode, len(v.Strs), len(v.Bytes))
	}

	v.reset(KindString) // a batch's Reset: the layout is undecided again
	v.AppendStrBytes([]byte("y"))
	if v.Mode != StrFlat || v.Value(0).S != "y" {
		t.Fatalf("after reset: layout %d, cell %v, want flat \"y\"", v.Mode, v.Value(0))
	}

	v.Reuse(KindString)
	for i := 0; i < 10; i++ {
		v.AppendValue(i, Str(fmt.Sprint("h", i)))
	}
	v.Reuse(KindInt)
	for i, s := range v.Strs[:cap(v.Strs)] {
		if s != "" {
			t.Fatalf("after Reuse: string header %d still holds %q", i, s)
		}
	}
	if v.Kind != KindInt || v.Mode != StrNone || len(v.Strs)+len(v.Bytes)+len(v.Offs) != 0 {
		t.Fatalf("after Reuse(KindInt): kind %v, layout %d, string cells left", v.Kind, v.Mode)
	}
}
