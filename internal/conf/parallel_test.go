package conf

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dtree"
	"repro/internal/obdd"
	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/table"
)

// TestComputeParallelBitIdentical: the partition-parallel aggregation scans
// produce exactly the serial operator's output — same rows, same order,
// bit-identical confidences — for several worker counts.
func TestComputeParallelBitIdentical(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(23)), 800, 6)
	sig := twoSourceSig()
	want, _, err := ComputeStats(cloneRelation(rel), sig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, _, err := ComputeStats(cloneRelation(rel), sig, Options{Pool: pool.New(workers)})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRelations(t, got, want, workers)
	}
}

// TestOBDDParallelBitIdentical: the per-answer OBDD fan-out returns the
// serial loop's exact output and stats for every worker count.
func TestOBDDParallelBitIdentical(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(29)), 500, 5)
	want, wantStats, err := OBDDLineage(context.Background(), nil, lineageOf(t, cloneRelation(rel)), nil, obdd.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, stats, err := OBDDLineage(context.Background(), pool.New(workers), lineageOf(t, cloneRelation(rel)), nil, obdd.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRelations(t, got, want, workers)
		// HdrRecycled depends on sync.Pool scheduling (which goroutine's
		// builder scratch survives a GC), so it is excluded from the
		// bit-identity contract; everything else must match exactly.
		g, w := *stats, *wantStats
		g.HdrRecycled, w.HdrRecycled = 0, 0
		if g != w {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
		}
	}
}

// TestDTreeParallelBitIdentical: the per-answer d-tree fan-out returns the
// serial loop's exact output and stats for every worker count.
func TestDTreeParallelBitIdentical(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(41)), 500, 5)
	want, wantStats, err := DTreeLineage(context.Background(), nil, lineageOf(t, cloneRelation(rel)), dtree.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, stats, err := DTreeLineage(context.Background(), pool.New(workers), lineageOf(t, cloneRelation(rel)), dtree.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRelations(t, got, want, workers)
		// As above: HdrRecycled is sync.Pool-scheduling-dependent.
		g, w := *stats, *wantStats
		g.HdrRecycled, w.HdrRecycled = 0, 0
		if g != w {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
		}
	}
}

// TestMonteCarloParallelBitIdentical: estimates depend only on the seed and
// the lineage, never on the worker pool that computed them.
func TestMonteCarloParallelBitIdentical(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(31)), 200, 4)
	opts := prob.MCOptions{Seed: 9, Epsilon: 0.2, Method: prob.MCNaive}
	want, _, err := MonteCarloLineage(context.Background(), lineageOf(t, cloneRelation(rel)), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 6} {
		o := opts
		o.Pool = pool.New(workers)
		got, _, err := MonteCarloLineage(context.Background(), lineageOf(t, cloneRelation(rel)), o)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRelations(t, got, want, workers)
	}
}

// TestMonteCarloCancellation: a cancelled context aborts the samplers.
func TestMonteCarloCancellation(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(37)), 50, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MonteCarloLineage(ctx, lineageOf(t, rel), prob.MCOptions{Seed: 1}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func cloneRelation(r *table.Relation) *table.Relation {
	c := table.NewRelation(r.Schema)
	c.Rows = append(c.Rows, r.Rows...)
	return c
}

func mustEqualRelations(t *testing.T, got, want *table.Relation, workers int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("workers=%d: %d rows, want %d", workers, got.Len(), want.Len())
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if len(g) != len(w) {
			t.Fatalf("workers=%d: row %d arity differs", workers, i)
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("workers=%d: row %d col %d = %v, want %v (bit-identical required)",
					workers, i, j, g[j], w[j])
			}
		}
	}
}
