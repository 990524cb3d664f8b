package sprout

import (
	"context"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestEngineMetrics: every Engine.Run feeds the engine-owned metrics
// registry — query counters (total, per style, failed), tuple counters, tier
// work and latency histograms — and Engine.Metrics snapshots them.
func TestEngineMetrics(t *testing.T) {
	db := tpchDB(nil)
	e, err := db.NewEngine(WithWorkers(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := e.Run(context.Background(), wrapQuery(custOrd()), Lazy); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), wrapQuery(custOrd()), OBDD); err != nil {
		t.Fatal(err)
	}
	// A cancelled run is a served-but-failed query.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(cancelled, wrapQuery(custOrd()), Lazy); err == nil {
		t.Fatal("cancelled run should fail")
	}

	snap := e.Metrics()
	if got := snap.Counters["queries_total"]; got != 3 {
		t.Errorf("queries_total = %d, want 3", got)
	}
	if got := snap.Counters["queries_failed_total"]; got != 1 {
		t.Errorf("queries_failed_total = %d, want 1", got)
	}
	if got := snap.Counters["queries_style_lazy_total"]; got != 2 {
		t.Errorf("queries_style_lazy_total = %d, want 2", got)
	}
	if got := snap.Counters["queries_style_obdd_total"]; got != 1 {
		t.Errorf("queries_style_obdd_total = %d, want 1", got)
	}
	if got := snap.Counters["answer_tuples_total"]; got <= 0 {
		t.Errorf("answer_tuples_total = %d, want > 0", got)
	}
	if got := snap.Counters["obdd_nodes_total"]; got <= 0 {
		t.Errorf("obdd_nodes_total = %d, want > 0", got)
	}
	if got := snap.Gauges["queries_inflight"]; got != 0 {
		t.Errorf("queries_inflight = %d, want 0 at rest", got)
	}
	h, ok := snap.Histograms["query_seconds"]
	if !ok {
		t.Fatal("query_seconds histogram missing")
	}
	// Failed runs record no latency: only the two successes are observed.
	if h.Count != 2 {
		t.Errorf("query_seconds count = %d, want 2", h.Count)
	}
	if h.SumSec <= 0 {
		t.Errorf("query_seconds sum = %g, want > 0", h.SumSec)
	}

	if e.MetricsRegistry() == nil {
		t.Fatal("MetricsRegistry returned nil")
	}
	// DB.Run (no engine) keeps working with no registry attached.
	if _, err := db.Run(wrapQuery(custOrd()), Lazy, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
}

// TestEngineLineageAndGraceMetrics: the layers the benchmark used to stage
// from outside report themselves — a lineage plan's collection time, clause
// and duplicate-row counts, and a governed join's fall to grace mode.
func TestEngineLineageAndGraceMetrics(t *testing.T) {
	e, err := tpchDB(nil).NewEngine(WithWorkers(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), wrapQuery(custOrd()), Lazy); err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics()
	for _, name := range []string{"lineage_clauses_total", "lineage_dup_rows_total", "grace_joins_total"} {
		if got := snap.Counters[name]; got != 0 {
			t.Errorf("sort+scan plan, ungoverned: %s = %d, want 0", name, got)
		}
	}
	if h := snap.Histograms["lineage_collect_seconds"]; h.Count != 0 {
		t.Errorf("sort+scan plan observed %d lineage collections", h.Count)
	}

	// The unsafe query has no signature: Lazy falls down the ladder, which
	// collects lineage once whichever rung answers.
	u, err := e.Run(context.Background(), wrapQuery(benchutil.UnsafeQuery()), Lazy)
	if err != nil {
		t.Fatal(err)
	}
	snap = e.Metrics()
	if got := snap.Counters["lineage_clauses_total"]; got <= 0 || got != u.Stats.LineageClauses {
		t.Errorf("lineage_clauses_total = %d, Stats.LineageClauses %d", got, u.Stats.LineageClauses)
	}
	if got := snap.Counters["lineage_dup_rows_total"]; got != u.Stats.LineageDupRows || got != u.Stats.AnswerTuples-u.Stats.LineageClauses {
		t.Errorf("lineage_dup_rows_total = %d, Stats.LineageDupRows %d, %d answer tuples − %d clauses",
			got, u.Stats.LineageDupRows, u.Stats.AnswerTuples, u.Stats.LineageClauses)
	}
	if h := snap.Histograms["lineage_collect_seconds"]; h.Count != 1 || h.SumSec <= 0 || h.SumSec > u.Stats.ProbTime.Seconds() {
		t.Errorf("lineage_collect_seconds = %+v, ProbTime %v (CollectTime %v)", h, u.Stats.ProbTime, u.Stats.CollectTime)
	}

	// A starved budget sends the governed join to grace mode.
	g, err := e.Run(context.Background(), wrapQuery(custOrd()), Lazy, WithMemoryBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Counters["grace_joins_total"]; got != 1 || got != g.Stats.GraceJoins {
		t.Errorf("grace_joins_total = %d, Stats.GraceJoins %d, want 1", got, g.Stats.GraceJoins)
	}
}

// TestEngineSpillMetrics: the sort+scan operator's sort passes and spill
// volume reach the registry — nothing for a query whose sorts fit in
// memory, runs and bytes for a q1 whose sort budget forces run files.
func TestEngineSpillMetrics(t *testing.T) {
	q1 := tpch.Catalog()["1"]
	e, err := tpchDB(tpch.FDsFor(q1)).NewEngine(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), wrapQuery(custOrd()), Lazy); err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics()
	if sorts := snap.Counters["conf_sorts_total"]; sorts < 1 || sorts != snap.Counters["conf_scans_total"] {
		t.Errorf("unspilled query: conf_sorts_total = %d, conf_scans_total = %d", sorts, snap.Counters["conf_scans_total"])
	}
	if runs, bytes := snap.Counters["sort_spilled_runs_total"], snap.Counters["sort_spill_bytes_total"]; runs != 0 || bytes != 0 {
		t.Errorf("unspilled query: %d spilled runs, %d spill bytes, want 0", runs, bytes)
	}

	dir := t.TempDir()
	tight := func(s *plan.Spec) error { s.Conf.SortBudget, s.Conf.TmpDir = 2000, dir; return nil }
	res, err := e.Run(context.Background(), wrapQuery(q1.Q.Clone()), Lazy, tight)
	if err != nil {
		t.Fatal(err)
	}
	snap = e.Metrics()
	wantRuns := (res.Stats.AnswerTuples + 1999) / 2000
	if wantRuns < 2 {
		t.Fatalf("q1 has %d answer tuples: too few to spill under the budget", res.Stats.AnswerTuples)
	}
	if runs := snap.Counters["sort_spilled_runs_total"]; runs != wantRuns || runs != int64(res.Stats.SpilledRuns) {
		t.Errorf("sort_spilled_runs_total = %d (Stats.SpilledRuns %d), want %d", runs, res.Stats.SpilledRuns, wantRuns)
	}
	if bytes := snap.Counters["sort_spill_bytes_total"]; bytes <= 0 || bytes != res.Stats.SpillBytes {
		t.Errorf("sort_spill_bytes_total = %d, Stats.SpillBytes %d", bytes, res.Stats.SpillBytes)
	}
	// The engine's free list: the second query's sorts and join builds drew
	// buffers the first one's gave back.
	reused, fresh, peak := snap.Gauges["buffer_reused_bytes"], snap.Gauges["buffer_fresh_bytes"], snap.Gauges["buffer_idle_peak_bytes"]
	if reused <= 0 || fresh <= 0 || peak <= 0 {
		t.Errorf("free list: %d bytes reused, %d fresh, idle peak %d; want all > 0", reused, fresh, peak)
	}
}
