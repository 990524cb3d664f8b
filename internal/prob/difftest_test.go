// Differential coverage lives in an external test package: internal/difftest
// imports prob (and both lineage compilers), so the property test must sit
// outside the package proper to avoid an import cycle.
package prob_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/prob"
)

// TestDifferential cross-checks every confidence tier on random
// lineage-shaped formulas: the possible-worlds oracle against Shannon
// expansion, OBDD and d-tree compilation (full and starved budgets), and
// the (ε, δ) Monte Carlo estimator.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		d, a := difftest.RandomDNF(rng, 12)
		if err := difftest.Check(d, a); err != nil {
			t.Fatalf("formula %d: %v", i, err)
		}
	}
}

// BenchmarkMCSample estimates one answer of the lineage_unsafe benchmark's
// shape — 75 variables, 51 three-literal clauses — at its (ε, δ): 1 060
// samples per estimate under the naive sampler, U² times that under
// Karp–Luby.
func BenchmarkMCSample(b *testing.B) {
	d, a := difftest.JoinDNF(rand.New(rand.NewSource(1)), 12, 12, 51)
	for _, m := range []prob.MCMethod{prob.MCNaive, prob.MCKarpLuby} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			samples := 0
			for i := 0; i < b.N; i++ {
				est, err := prob.EstimateAllCtx(context.Background(), []*prob.DNF{d}, a,
					prob.MCOptions{Epsilon: 0.05, Delta: 0.01, Seed: int64(i), Method: m})
				if err != nil {
					b.Fatal(err)
				}
				samples += est[0].Samples
			}
			b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
