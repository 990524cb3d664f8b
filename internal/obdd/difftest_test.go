// Differential coverage lives in an external test package: internal/difftest
// imports obdd, so the property test and fuzz target must sit outside the
// package proper to avoid an import cycle.
package obdd_test

import (
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/dtree"
	"repro/internal/obdd"
)

// TestDifferential runs the repo-wide harness over random lineage-shaped
// formulas: worlds oracle vs Shannon vs OBDD vs d-tree vs Monte Carlo.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		d, a := difftest.RandomDNF(rng, 12)
		if err := difftest.Check(d, a); err != nil {
			t.Fatalf("formula %d: %v", i, err)
		}
	}
}

// TestResetKeepsHeaderArena: recompiling the benchmark-shaped formula on a
// reused kernel builder allocates no clause-set header block, ever again,
// and recycles exactly as many headers as the compile before.
func TestResetKeepsHeaderArena(t *testing.T) {
	d, a := difftest.JoinDNF(rand.New(rand.NewSource(1)), 12, 12, 51)
	var b dtree.Builder
	var order obdd.OrderScratch
	err := difftest.CheckSteadyRecompile(func() obdd.Result {
		res, err := obdd.ProbWith(&b, d, a, order.OccurrenceOrder(d, nil), obdd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzCompile feeds fuzzer-mutated byte strings through difftest.DecodeDNF
// and runs the compile-tier differential battery — the decoder is shared
// with internal/dtree's target, so corpus entries found by one fuzzer
// exercise the other compiler too.
func FuzzCompile(f *testing.F) {
	for _, seed := range [][]byte{
		{0x11, 1, 2, 0, 3, 4},                   // two disjoint clauses
		{0x42, 1, 2, 0, 1, 3, 0, 1, 4},          // one variable shared by every clause
		{0x07, 1, 3, 0, 1, 4, 0, 2, 4, 0, 5, 6}, // mixed overlap and disjoint tail
		{0x99, 1, 0, 1, 2, 0, 2, 3, 0, 3, 1},    // chained overlaps
		{0xff, 12, 24, 36, 0, 1},                // bytes that collapse to the same variable mod 12
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, a, ok := difftest.DecodeDNF(data)
		if !ok {
			return
		}
		if err := difftest.CheckCompile(d, a); err != nil {
			t.Fatal(err)
		}
	})
}
