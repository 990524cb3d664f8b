package plan_test

import (
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
