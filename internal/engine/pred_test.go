package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/table"
)

// predDomains are the cells and constants the kernel fuzz draws from, per
// kind: few enough values that cells tie with constants, with the float
// edge cases (NaN, ±0, ±Inf), and strings that are prefixes of each other
// or share their first 8 bytes.
var predDomains = map[table.Kind][]table.Value{
	table.KindInt: {table.Int(-3), table.Int(0), table.Int(1), table.Int(2), table.Int(math.MaxInt64), table.Int(math.MinInt64)},
	table.KindFloat: {table.Float(math.NaN()), table.Float(math.Copysign(0, -1)), table.Float(0), table.Float(1),
		table.Float(2.5), table.Float(-1.5), table.Float(math.Inf(1)), table.Float(math.Inf(-1))},
	table.KindBool: {table.Bool(false), table.Bool(true)},
	table.KindString: {table.Str(""), table.Str("a"), table.Str("ab"), table.Str("b"), table.Str("1994-01-"),
		table.Str("1994-01-0"), table.Str("1994-01-01"), table.Str("1994-01-011"), table.Str("1994-01-02"), table.Str("1995-01-01")},
}

// fuzzVec builds an n-row vector of kind k from rng: shared string headers
// or flat bytes, NULL cells (at rate 1/nullEvery; 0 = none; every cell of
// a KindNull column) set in the bitmap.
func fuzzVec(rng *rand.Rand, k table.Kind, flat bool, n, nullEvery int) *table.ColVec {
	v := &table.ColVec{Kind: k}
	if k == table.KindString && flat {
		v.Mode, v.Offs = table.StrFlat, []int32{0}
	}
	dom := predDomains[k]
	for i := 0; i < n; i++ {
		if k == table.KindNull || nullEvery > 0 && rng.Intn(nullEvery) == 0 {
			v.AppendValue(i, table.Null())
			continue
		}
		c := dom[rng.Intn(len(dom))]
		if k == table.KindInt && rng.Intn(3) == 0 {
			c = table.Int(rng.Int63n(7) - 3)
		}
		v.AppendValue(i, c)
	}
	return v
}

// checkKernel runs p's kernel over rows [lo, hi) of v, or over the rows in
// lists, into fresh storage and into in's own storage, and compares both
// with the rows where Op.Holds(table.Compare(cell, Val)).
func checkKernel(t *testing.T, v *table.ColVec, p ColPred, lo, hi int, in []int32) {
	t.Helper()
	cand := in
	if in == nil {
		for row := lo; row < hi; row++ {
			cand = append(cand, int32(row))
		}
	}
	var want []int32
	for _, row := range cand {
		if p.Op.Holds(table.Compare(v.Value(int(row)), p.Val)) {
			want = append(want, row)
		}
	}
	label := fmt.Sprintf("%s column (mode %d, nulls %v) %s %v over [%d,%d) sel %v", v.Kind, v.Mode, len(v.Nulls) > 0, p.Op, p.Val, lo, hi, in != nil)
	got := p.selectRows(v, lo, hi, in, make([]int32, len(cand)))
	if !slices.Equal(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: got rows %v, want %v", label, got, want)
	}
	if in != nil {
		aliased := slices.Clone(in)
		if got := p.selectRows(v, lo, hi, aliased, aliased); !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s, in place: got rows %v, want %v", label, got, want)
		}
	}
}

// FuzzColPred checks the selection kernels against table.Compare: for a
// random vector of each kind and layout — int, float with NaN/±0/±Inf,
// bool, flat and header strings, and an all-NULL column — with and without
// NULLs, over a row range and under an incoming selection, every CmpOp
// against constants of every kind (NULL and cross-kind numerics included)
// selects exactly the rows whose cell satisfies
// Op.Holds(table.Compare(cell, constant)).
func FuzzColPred(f *testing.F) {
	for vk := uint8(0); vk < 6; vk++ {
		for flags := uint8(0); flags < 8; flags++ {
			f.Add(int64(vk)*8+int64(flags), vk, flags)
		}
	}
	kinds := []table.Kind{table.KindInt, table.KindFloat, table.KindBool, table.KindString, table.KindString, table.KindNull}
	f.Fuzz(func(t *testing.T, seed int64, vk, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := kinds[int(vk)%len(kinds)]
		flat := int(vk)%len(kinds) == 4
		n := rng.Intn(3 * 64)
		nullEvery := 0
		if flags&1 != 0 {
			nullEvery = 1 + rng.Intn(5)
		}
		v := fuzzVec(rng, k, flat, n, nullEvery)
		lo, hi := 0, n
		if flags&4 != 0 && n > 0 {
			lo = rng.Intn(n)
			hi = lo + rng.Intn(n-lo+1)
		}
		var in []int32
		if flags&2 != 0 {
			in = []int32{}
			for row := lo; row < hi; row++ {
				if rng.Intn(2) == 0 {
					in = append(in, int32(row))
				}
			}
		}
		consts := []table.Value{table.Null()}
		for _, ck := range []table.Kind{table.KindInt, table.KindFloat, table.KindBool, table.KindString} {
			dom := predDomains[ck]
			consts = append(consts, dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
		}
		for _, c := range consts {
			for op := OpEq; op <= OpGe; op++ {
				checkKernel(t, v, ColPred{Op: op, Val: c}, lo, hi, in)
			}
		}
	})
}

// TestSelectAllChainsPredicates: selectAll narrows predicate after
// predicate, each reading its own column, and stops on an empty
// selection.
func TestSelectAllChainsPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := []table.ColVec{*fuzzVec(rng, table.KindInt, false, 300, 4), *fuzzVec(rng, table.KindString, true, 300, 0)}
	preds := []ColPred{{Col: 0, Op: OpGe, Val: table.Int(0)}, {Col: 1, Op: OpLt, Val: table.Str("b")}}
	var sel []int32
	got := selectAll(preds, cols, 20, 280, &sel)
	var want []int32
	for row := 20; row < 280; row++ {
		if table.Compare(cols[0].Value(row), preds[0].Val) >= 0 && table.Compare(cols[1].Value(row), preds[1].Val) < 0 {
			want = append(want, int32(row))
		}
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	none := []ColPred{{Col: 0, Op: OpGt, Val: table.Int(math.MaxInt64)}, {Col: 1, Op: OpEq, Val: table.Str("a")}}
	if got := selectAll(none, cols, 0, 300, &sel); len(got) != 0 {
		t.Fatalf("an unsatisfiable first predicate kept %v", got)
	}
}
