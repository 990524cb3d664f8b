package plan_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestSortScanPlacementsDoNotMaterialize pins what a sort+scan placement
// allocates: the lazy top operator (q1: 57k answer rows into 4 groups) and
// the eager per-join steps (q21) stream their input into run generation, so
// a run's bytes are set by the sort budget and the pipeline's batches — not
// by the answer. The ceilings are half of what the same runs allocated when
// every placement first collected its input into a relation (16.8 MB and
// 60.4 MB); the streamed runs sit near 2 MB and 14 MB.
func TestSortScanPlacementsDoNotMaterialize(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.01, Seed: 1}).Catalog()
	for _, c := range []struct {
		q       string
		style   plan.Style
		ceiling uint64
	}{
		{"1", plan.Lazy, 8_400_000},
		{"21", plan.Eager, 30_000_000},
	} {
		e := tpch.Catalog()[c.q]
		spec := plan.Spec{Style: c.style, Workers: 1}
		spec.Conf.SortBudget = 4096
		spec.Conf.TmpDir = t.TempDir()
		run := func() *plan.Result {
			res, err := plan.Run(cat, e.Q.Clone(), tpch.FDsFor(e), spec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		run() // first run pays one-off warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := run()
		runtime.ReadMemStats(&after)
		if res.Stats.AnswerTuples < 50_000 || res.Stats.SpilledRuns < 10 {
			t.Fatalf("q%s/%v: %d answer tuples in %d spilled runs — not the workload this test pins",
				c.q, c.style, res.Stats.AnswerTuples, res.Stats.SpilledRuns)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("q%s/%v: %d answer tuples, %d spilled runs, %.2f MB allocated", c.q, c.style, res.Stats.AnswerTuples, res.Stats.SpilledRuns, float64(got)/1e6)
		if got > c.ceiling {
			t.Errorf("q%s/%v allocated %d bytes, over the %d ceiling: some sort+scan placement materializes its input again",
				c.q, c.style, got, c.ceiling)
		}
	}
}

// TestWorkerCountDoesNotMultiplyAllocation pins that extra workers buy
// parallel sort+scan passes and nothing else: the relational pipeline
// streams at every worker count, so Workers 4 allocates about what Workers
// 1 does (0.99–1.01× per run here) and returns the same answers bit for
// bit. Each worker count is measured at the free list's steady state, the
// least of a few runs after a few warm-up runs: a single run after one
// warm-up moved with test order (q18/eager's base read 1.13 or 1.51 MB).
// While scans were chunk-materialized and joins hash-partitioned into
// materialized partitions under a multi-worker pool, the same runs
// allocated 3.1–3.9× as much.
func TestWorkerCountDoesNotMultiplyAllocation(t *testing.T) {
	const steadyWarmups, steadyRuns = 3, 3
	cat := tpch.Generate(tpch.Config{SF: 0.005, Seed: 1}).Catalog()
	for _, q := range []string{"3", "18"} {
		e := tpch.Catalog()[q]
		for _, style := range []plan.Style{plan.Lazy, plan.Eager} {
			run := func(workers int) (*plan.Result, uint64) {
				spec := plan.Spec{Style: style, Workers: workers}
				exec := func() *plan.Result {
					res, err := plan.Run(cat, e.Q.Clone(), tpch.FDsFor(e), spec)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				// Warm-up runs bring the engine's free list to its steady
				// state for this worker count, so that the measured runs do
				// not depend on what the tests before left idle on it; the
				// least of the measured runs is the figure.
				for range steadyWarmups {
					exec()
				}
				var res *plan.Result
				least := uint64(math.MaxUint64)
				for range steadyRuns {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					res = exec()
					runtime.ReadMemStats(&after)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				return res, least
			}
			one, oneBytes := run(1)
			four, fourBytes := run(4)
			ratio := float64(fourBytes) / float64(oneBytes)
			t.Logf("q%s/%v: workers=1 %.2f MB, workers=4 %.2f MB (%.2f×)", q, style, float64(oneBytes)/1e6, float64(fourBytes)/1e6, ratio)
			if one.Rows.Len() == 0 || one.Rows.Len() != four.Rows.Len() {
				t.Fatalf("q%s/%v: %d answers at workers=1, %d at workers=4", q, style, one.Rows.Len(), four.Rows.Len())
			}
			for i, row := range one.Rows.Rows {
				for c, v := range row {
					if w := four.Rows.Rows[i][c]; v.String() != w.String() || math.Float64bits(v.F) != math.Float64bits(w.F) {
						t.Fatalf("q%s/%v: answer %d column %d is %v at workers=4, %v at workers=1", q, style, i, c, w, v)
					}
				}
			}
			if ratio > 1.5 {
				t.Errorf("q%s/%v: workers=4 allocated %.2f× what workers=1 did, over the 1.5× ceiling: some relational operator materializes per worker again", q, style, ratio)
			}
		}
	}
}
