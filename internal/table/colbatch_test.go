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

// TestColBatchStrBytesLayouts: raw bytes (the heap scan's append) and
// string Values land in the one flat layout, interleaved in any order at low
// and high cardinality alike, preserving every cell; after a Reset the
// offsets start over at 0 with the first cell.
func TestColBatchStrBytesLayouts(t *testing.T) {
	sch := NewSchema(DataCol("s", KindString))
	b := NewColBatch(sch)
	v := &b.Cols[0]
	var want []string
	for i := 0; i < 64; i++ {
		s := fmt.Sprintf("low-%02d", i%8)
		if i%2 == 0 {
			v.AppendStrBytes([]byte(s))
		} else {
			v.AppendValue(b.N, Str(s))
		}
		want = append(want, s)
		b.N++
	}
	for i := 256; i >= 0; i-- {
		s := fmt.Sprintf("wide-%04d", i)
		v.AppendStrBytes([]byte(s))
		want = append(want, s)
		b.N++
	}
	if len(v.Offs) != b.N+1 || v.Offs[0] != 0 || int(v.Offs[b.N]) != len(v.Bytes) {
		t.Fatalf("%d cells: %d offsets from %d to %d over %d bytes", b.N, len(v.Offs), v.Offs[0], v.Offs[len(v.Offs)-1], len(v.Bytes))
	}
	for i, s := range want {
		if got := v.Value(i); got.S != s {
			t.Fatalf("cell %d = %q, want %q", i, got.S, s)
		}
	}
	// A row range, then a selection, copied onto a batch holding a cell.
	out := NewColBatch(sch)
	out.AppendRow(Tuple{Str("first")})
	out.AppendBatch(b, 60, 70)
	b.Sel = []int32{3, 64, 65, 200}
	out.AppendBatch(b, 1, 4)
	b.Sel = nil
	for i, w := range append([]string{"first"}, append(want[60:70], want[64], want[65], want[200])...) {
		if got := out.Cols[0].Value(i); got.S != w {
			t.Fatalf("copied cell %d = %q, want %q", i, got.S, w)
		}
	}
	for _, first := range []func(){
		func() { v.AppendStrBytes([]byte("after")) },
		func() { v.AppendValue(0, Str("after")) },
		func() { v.AppendValue(0, Null()) },
	} {
		b.Reset(sch)
		first()
		b.N = 1
		if len(v.Offs) != 2 || v.Offs[0] != 0 || int(v.Offs[1]) != len(v.Bytes) {
			t.Fatalf("after Reset: offsets %v over %d bytes, want [0 %d]", v.Offs, len(v.Bytes), len(v.Bytes))
		}
	}
	if got := v.Value(0); got != Null() {
		t.Fatalf("after Reset: NULL cell = %v", got)
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

// oneCol builds a one-column batch of the given kind holding vals.
func oneCol(kind Kind, vals []Value) *ColVec {
	b := NewColBatch(NewSchema(DataCol("c", kind)))
	for _, v := range vals {
		b.Cols[0].AppendValue(b.N, v)
		b.N++
	}
	return &b.Cols[0]
}

// TestColVecCompareCellMatchesCompare: CompareCell must order any cell
// against any cell of any kind exactly as Compare orders the materialized
// values — NULL equals NULL, 3 equals 3.0, -0 equals +0, and strings compare
// byte-wise, a leading NULL included — the hash join's key equality rests
// on it.
func TestColVecCompareCellMatchesCompare(t *testing.T) {
	cols := []struct {
		name string
		kind Kind
		vals []Value
	}{
		{"int", KindInt, []Value{Int(3), Int(0), Null(), Int(-1), Int(2)}},
		{"float", KindFloat, []Value{Float(3), Float(math.Copysign(0, -1)), Float(0), Null(), Float(2.5), Float(-1)}},
		{"bool", KindBool, []Value{Bool(true), Null(), Bool(false)}},
		{"null", KindNull, []Value{Null(), Null()}},
		{"string", KindString, []Value{Str("b"), Str(""), Str("a"), Null(), Str("ab"), Str("s-0100"), Str("b")}},
		{"null-first-string", KindString, []Value{Null(), Str("a\x00b"), Str("a"), Str("")}},
	}
	for _, a := range cols {
		av := oneCol(a.kind, a.vals)
		for _, b := range cols {
			bv := oneCol(b.kind, b.vals)
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
// over like a new one — no cells, the first string cell's offsets from 0 —
// while its storage keeps its capacity; and reserving no rows gives a new
// batch no storage, so that a drain of the free list (Draw(ls, 0) until a
// batch comes back empty) ends.
func TestColVecReuse(t *testing.T) {
	var v ColVec
	v.Reuse(KindString)
	for i := 0; i < 257; i++ {
		v.AppendStrBytes([]byte(fmt.Sprint("s", i)))
	}
	bytesCap, offsCap := cap(v.Bytes), cap(v.Offs)
	v.Reuse(KindString)
	if len(v.Bytes)+len(v.Offs) != 0 || cap(v.Bytes) != bytesCap || cap(v.Offs) != offsCap {
		t.Fatalf("after Reuse: %d bytes and %d offsets left, capacity %d/%d, want none left and %d/%d",
			len(v.Bytes), len(v.Offs), cap(v.Bytes), cap(v.Offs), bytesCap, offsCap)
	}
	v.AppendValue(0, Str("x"))
	if len(v.Offs) != 2 || v.Offs[0] != 0 || v.Value(0).S != "x" {
		t.Fatalf("after Reuse: offsets %v, cell %v, want [0 1] \"x\"", v.Offs, v.Value(0))
	}
	v.Reuse(KindInt)
	if v.Kind != KindInt || len(v.Bytes)+len(v.Offs) != 0 {
		t.Fatalf("after Reuse(KindInt): kind %v, %d string bytes left", v.Kind, len(v.Bytes))
	}

	b := NewColBatch(NewSchema(DataCol("s", KindString), DataCol("i", KindInt)))
	if b.Reserve(0); b.MemSize() != 0 {
		t.Fatalf("Reserve(0) of a new batch grew it to %d bytes, want none", b.MemSize())
	}
}
