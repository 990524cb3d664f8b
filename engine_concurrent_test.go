package sprout

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/tpch"
)

// tpchDB wraps freshly generated TPC-H data in the public DB type so the
// Engine facade can serve the paper's workload. sigma may be nil for the
// no-FDs (unsafe-query) setup.
func tpchDB(sigma *fd.Set) *DB {
	d := tpch.Generate(tpch.Config{SF: 0.002, Seed: 1})
	if sigma == nil {
		sigma = fd.NewSet()
	}
	return &DB{catalog: d.Catalog(), sigma: sigma}
}

// wrapQuery lifts an internal query AST into the facade type (tests live in
// the sprout package, so they can do what the builder does).
func wrapQuery(q *query.Query) *Query { return &Query{q: q} }

// custOrd is π{ckey,cname}(Cust ⋈ σ{odate<'1996-09-01'}(Ord)) —
// hierarchical without any FDs.
func custOrd() *query.Query {
	return &query.Query{
		Name: "custOrd",
		Head: []string{"ckey", "cname"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname", "nkey", "cacctbal", "mkt"),
			query.Rel("Ord", "okey", "ckey", "odate", "oprice", "opri"),
		},
		Sels: []query.Selection{
			{Rel: "Ord", Attr: "odate", Op: engine.OpLt, Val: table.Str("1996-09-01")},
		},
	}
}

// confMap indexes a result's confidences by rendered answer tuple.
func confMap(t *testing.T, res *Result) map[string]float64 {
	t.Helper()
	m := make(map[string]float64, len(res.Rows))
	for _, r := range res.Rows {
		key := ""
		for _, v := range r.Values {
			key += v.String() + "|"
		}
		if _, dup := m[key]; dup {
			t.Fatalf("duplicate answer %q", key)
		}
		m[key] = r.Confidence
	}
	return m
}

func mustSameConfidences(t *testing.T, label string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: answer %q missing", label, k)
		}
		if g != w {
			t.Fatalf("%s: answer %q confidence %v, want %v (bit-identical required)", label, k, g, w)
		}
	}
}

// workload is the mixed style/query matrix of the stress tests: exact
// sort+scan styles and the OBDD and d-tree tiers on a hierarchical query,
// plus the compilation and Monte Carlo tiers on the unsafe query (which has
// no hierarchical signature under an empty FD set).
func workload() []struct {
	name  string
	q     *query.Query
	style PlanStyle
} {
	return []struct {
		name  string
		q     *query.Query
		style PlanStyle
	}{
		{"custOrd/lazy", custOrd(), Lazy},
		{"custOrd/eager", custOrd(), Eager},
		{"custOrd/hybrid", custOrd(), Hybrid},
		{"custOrd/obdd", custOrd(), OBDD},
		{"custOrd/dtree", custOrd(), DTree},
		{"unsafe/mc", benchutil.UnsafeQuery(), MonteCarlo},
		{"unsafe/obdd", benchutil.UnsafeQuery(), OBDD},
		{"unsafe/dtree", benchutil.UnsafeQuery(), DTree},
		{"unsafe/lazy-fallback", benchutil.UnsafeQuery(), Lazy},
	}
}

// TestEngineConcurrentMixedStyles: many goroutines hammer one shared Engine
// with a mix of exact, OBDD and Monte Carlo runs over the TPC-H catalog;
// every result must equal the serial single-threaded evaluation bit for
// bit.
func TestEngineConcurrentMixedStyles(t *testing.T) {
	concurrentMixedStyles(t)
}

// TestEngineConcurrentMixedStylesSpilling is TestEngineConcurrentMixedStyles
// with a sort budget of 64 rows: every sort+scan pass of the exact styles
// spills tens of runs, so the sorters' recycled buffers pass from goroutine
// to goroutine many times a query, and the results must still equal the
// unspilled serial evaluation bit for bit.
func TestEngineConcurrentMixedStylesSpilling(t *testing.T) {
	dir := t.TempDir()
	concurrentMixedStyles(t, func(s *plan.Spec) error { s.Conf.SortBudget, s.Conf.TmpDir = 64, dir; return nil })
}

// concurrentMixedStyles runs workload() on 8 goroutines of one Engine with
// the given run options and compares every result with the serial one.
func concurrentMixedStyles(t *testing.T, opts ...RunOption) {
	difftest.LeakCheck(t)
	db := tpchDB(nil)
	items := workload()

	// Serial reference: classic single-threaded executor.
	want := make([]map[string]float64, len(items))
	for i, it := range items {
		res, err := db.Run(wrapQuery(it.q), it.style, WithWorkers(1), WithSeed(1))
		if err != nil {
			t.Fatalf("serial %s: %v", it.name, err)
		}
		want[i] = confMap(t, res)
	}

	e, err := db.NewEngine(WithWorkers(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				it := items[(g+n)%len(items)]
				res, err := e.Run(context.Background(), wrapQuery(it.q), it.style, opts...)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", it.name, err)
					return
				}
				got := confMap(t, res)
				w := want[(g+n)%len(items)]
				if len(got) != len(w) {
					errs <- fmt.Errorf("%s: %d answers, want %d", it.name, len(got), len(w))
					return
				}
				for k, wv := range w {
					if gv, ok := got[k]; !ok || gv != wv {
						errs <- fmt.Errorf("%s: answer %q = %v, want %v", it.name, k, gv, wv)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineRunBatch: a batch of mixed requests returns every result in
// request order, equal to serial evaluation, with no cross-talk.
func TestEngineRunBatch(t *testing.T) {
	db := tpchDB(nil)
	items := workload()

	batch := make([]BatchItem, len(items))
	for i, it := range items {
		batch[i] = BatchItem{Query: wrapQuery(it.q), Style: it.style}
	}
	e, err := db.NewEngine(WithWorkers(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	results := e.RunBatch(context.Background(), batch)
	if len(results) != len(items) {
		t.Fatalf("got %d results, want %d", len(results), len(items))
	}
	for i, it := range items {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", it.name, results[i].Err)
		}
		serial, err := db.Run(wrapQuery(it.q), it.style, WithWorkers(1), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		mustSameConfidences(t, it.name, confMap(t, results[i].Result), confMap(t, serial))
	}
}

// TestEngineCancellation: cancelling the context aborts an expensive Monte
// Carlo run promptly with the context's error.
func TestEngineCancellation(t *testing.T) {
	difftest.LeakCheck(t)
	db := tpchDB(nil)
	e, err := db.NewEngine(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	// ε = 0.003 needs ~300k samples per answer over ~1700 answers: minutes
	// of work when not cancelled.
	_, err = e.Run(ctx, wrapQuery(benchutil.UnsafeQuery()), MonteCarlo,
		WithSeed(1), WithEpsilonDelta(0.003, 0.01))
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
	// Cancelled batches mark unfinished items with the context error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	results := e.RunBatch(ctx2, []BatchItem{{Query: wrapQuery(custOrd()), Style: Lazy}})
	if results[0].Err == nil {
		t.Fatal("cancelled batch item must carry an error")
	}
}

// TestWorkerCountBitIdentical: every style returns bit-identical
// confidences for workers=1 and workers=N — the engine's determinism
// contract, pinned across the exact sort+scan styles, the safe-plan
// baseline, the OBDD and d-tree tiers, Monte Carlo, and the unsafe-query
// fallback chain. The structural execution trace (Trace.Fingerprint: row
// counts, lineage shape, compilation and sampler detail — everything but
// timings and the loose scheduling-dependent attributes) is part of the
// same contract and must also match across worker counts. The
// safe-plan baseline, which shares the lowering and the sort+scan pass with
// the other styles, additionally runs the benchmark's TPC-H queries at SF
// 0.005 — large enough for partitioned sort+scan passes and projections.
func TestWorkerCountBitIdentical(t *testing.T) {
	difftest.LeakCheck(t)
	db := tpchDB(nil)
	type styleCase struct {
		name  string
		q     *query.Query
		style PlanStyle
		db    *DB // nil: db
	}
	styles := []styleCase{
		{name: "lazy", q: custOrd(), style: Lazy},
		{name: "eager", q: custOrd(), style: Eager},
		{name: "hybrid", q: custOrd(), style: Hybrid},
		{name: "mystiq", q: custOrd(), style: MystiQ},
		{name: "obdd", q: custOrd(), style: OBDD},
		{name: "dtree", q: custOrd(), style: DTree},
		{name: "mc", q: custOrd(), style: MonteCarlo},
		{name: "unsafe-mc", q: benchutil.UnsafeQuery(), style: MonteCarlo},
		{name: "unsafe-obdd", q: benchutil.UnsafeQuery(), style: OBDD},
		{name: "unsafe-dtree", q: benchutil.UnsafeQuery(), style: DTree},
		{name: "unsafe-fallback", q: benchutil.UnsafeQuery(), style: Eager},
		{name: "auto", q: custOrd(), style: Auto},
		{name: "unsafe-auto", q: benchutil.UnsafeQuery(), style: Auto},
	}
	big := tpch.Generate(tpch.Config{SF: 0.005, Seed: 1}).Catalog()
	for _, name := range []string{"3", "18", "B17", "20"} {
		e := tpch.Catalog()[name]
		styles = append(styles, styleCase{"mystiq-" + name, e.Q, MystiQ, &DB{catalog: big, sigma: tpch.FDsFor(e)}})
	}
	for _, tc := range styles {
		t.Run(tc.name, func(t *testing.T) {
			db := db
			if tc.db != nil {
				db = tc.db
			}
			ref, err := db.Run(wrapQuery(tc.q), tc.style, WithWorkers(1), WithSeed(1), WithTrace())
			if err != nil {
				t.Fatal(err)
			}
			want := confMap(t, ref)
			if ref.Stats.Trace == nil {
				t.Fatal("WithTrace: no trace collected")
			}
			wantTrace := ref.Stats.Trace.Fingerprint()
			for _, workers := range []int{2, 4, 8} {
				res, err := db.Run(wrapQuery(tc.q), tc.style, WithWorkers(workers), WithSeed(1), WithTrace())
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				mustSameConfidences(t, fmt.Sprintf("%s workers=%d", tc.name, workers), confMap(t, res), want)
				if got := res.Stats.Trace.Fingerprint(); got != wantTrace {
					t.Errorf("workers=%d: structural trace diverged\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
						workers, wantTrace, workers, got)
				}
			}
		})
	}
}

// transientFaultIO builds a fresh injector whose faults are all transient
// and all absorbed by the storage-level retry policy — a faulted run must
// behave observably like a fault-free one.
func transientFaultIO() *fault.IO {
	return &fault.IO{
		Plan: fault.NewPlan(7,
			fault.Rule{Op: fault.OpCreate, Kind: fault.KindErr, Nth: 2, Transient: true},
			fault.Rule{Op: fault.OpWrite, Kind: fault.KindErr, Nth: 3, Count: 2, Transient: true},
			fault.Rule{Op: fault.OpRead, Kind: fault.KindErr, Nth: 2, Count: 2, Transient: true},
			fault.Rule{Op: fault.OpSync, Kind: fault.KindErr, Nth: 1, Transient: true},
		),
		Retry: fault.Retry{MaxAttempts: 3, Base: time.Microsecond, Max: time.Millisecond},
		Sleep: func(time.Duration) {},
	}
}

// TestFaultedRunsBitIdentical is the faulted-but-recovered axis of the
// determinism contract: transient injected I/O faults, absorbed inside the
// storage wrappers by the retry policy, must leave confidences bit-identical
// to the fault-free run — across worker counts. The spill budget is starved
// so the runs actually exercise the fault plane (the in-memory catalog only
// touches storage through external-sort spills) — the sort+scan operator's
// under the lazy plan, the independent projections' under MystiQ's.
func TestFaultedRunsBitIdentical(t *testing.T) {
	difftest.LeakCheck(t)
	db := tpchDB(nil)
	for _, style := range []PlanStyle{Lazy, MystiQ} {
		spec := func(workers int) plan.Spec {
			s := plan.Spec{Style: style, Workers: workers}
			s.Conf.SortBudget = 64
			s.Conf.TmpDir = t.TempDir()
			return s
		}
		ref, err := db.RunSpec(wrapQuery(custOrd()), spec(1))
		if err != nil {
			t.Fatal(err)
		}
		want := confMap(t, ref)

		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("faulted %v workers=%d", style, workers)
			io := transientFaultIO()
			storage.SetIO(io)
			res, err := db.RunSpec(wrapQuery(custOrd()), spec(workers))
			storage.SetIO(nil)
			if err != nil {
				t.Fatalf("%s: transient faults must be absorbed: %v", name, err)
			}
			if io.Plan.Injected() == 0 {
				t.Fatalf("%s: no fault fired — the run did not exercise the fault plane", name)
			}
			if io.Retries() == 0 {
				t.Fatalf("%s: faults fired but nothing retried", name)
			}
			mustSameConfidences(t, name, confMap(t, res), want)
		}
	}
}
