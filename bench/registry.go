package main

import (
	"bytes"
	"encoding/json"

	"repro/internal/plan"
)

// This file is the benchmark's one table of names: the four workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json is printed from it (-manifest) and a test checks
// the committed file against it, so the two cannot drift.

// Datasets. A dataset is built from -seed alone; -sf-scale multiplies both
// scale factors for off-line checks (gated numbers are taken at 1.0).
const (
	disk05 = "disk05" // SF 0.05 heap files behind a 256-page (2 MiB) pool: Item alone is ~2 500 pages, so scans miss the pool
	mem02  = "mem02"  // SF 0.02 as Go heap, analyzed: the whole database fits
)

const (
	disk05SF  = 0.05
	mem02SF   = 0.02
	poolPages = 256

	mcEpsilon = 0.05
	mcDelta   = 0.01

	// governedBudget is the MemBudget of the fault layer's governed passes.
	governedBudget = 8 << 20
	// tightOBDDBudget makes U's OBDD rung overflow so the exact styles'
	// ladder falls through to the d-tree rung (plan.ladder_fallthrough_s).
	tightOBDDBudget = 8

	// exactTol is the agreement demanded between exact answers (disk vs
	// memory, row vs columnar, lazy vs eager, obdd vs dtree).
	exactTol = 1e-9
	// mystiqTol is the agreement demanded of MystiQ rows. Its aggregate is
	// 1-10^Σlog10(1.001-p) (engine.AggLogOr, after §VII), so every
	// independent projection is off by about 1e-3 by construction; the
	// measured worst case on join_styles over seeds 1-60 is 5.9e-3 (q3).
	mystiqTol = 1e-2
)

// setupBuilds is how many times a run builds its dataset from nothing;
// setup_s is the median. Both come to about three seconds of set-up. mem02
// builds in a third of a second, and the median of three such builds moved
// by a third between two runs of one binary.
var setupBuilds = map[string]int{disk05: 3, mem02: 9}

// unsafeQuery names benchutil.UnsafeQuery, run under an empty FD set.
const unsafeQuery = "U"

// rowSpec is one (query, style) execution of a pass.
type rowSpec struct {
	Query string
	Style plan.Style
}

// workloadDef is one named workload: a fixed list of rows over one dataset.
// A pass runs the list once, in order; a run is one untimed warm-up pass
// plus Passes timed ones (or as many as fit -seconds).
type workloadDef struct {
	Name    string
	Dataset string
	Passes  int
	Rows    []rowSpec
	Why     string

	// Governed makes the traced run repeat the pass under governedBudget
	// (fault.*).
	Governed bool
}

func rows(style plan.Style, queries ...string) []rowSpec {
	out := make([]rowSpec, len(queries))
	for i, q := range queries {
		out[i] = rowSpec{q, style}
	}
	return out
}

func cross(queries []string, styles ...plan.Style) []rowSpec {
	var out []rowSpec
	for _, q := range queries {
		for _, s := range styles {
			out = append(out, rowSpec{q, s})
		}
	}
	return out
}

// workloads is sized for ≈30 s of timed passes each on the 2-core machine
// the issue was measured on; under the driver's -seconds the count is cut,
// never the scale or the lists.
var workloads = []workloadDef{
	{
		Name: "scan_disk", Dataset: disk05, Passes: 36,
		Rows: rows(plan.Lazy, "B6", "15", "B14", "B19", "12", "4", "16"),
		Why:  "Pool-missing heap scans, tuple decode, filter/project and one join do over 95% of the work (conf under 5%, no lineage): storage and the columnar engine move it, conf/obdd changes must not.",
	},
	{
		Name: "conf_sortscan", Dataset: disk05, Passes: 14,
		Rows:     append(rows(plan.Lazy, "1", "B1"), rows(plan.Eager, "18", "21", "B17")...),
		Why:      "The paper's sort+scan operator dominates (q1: 286k answer rows into 21 groups with spilled runs; eager plans sort 300k-row intermediates per join); storage is used for run-file writes and merges.",
		Governed: true,
	},
	{
		Name: "join_styles", Dataset: mem02, Passes: 21,
		// Two MystiQ rows are left out, because a workload may hold no row
		// that fails (README "Defects found"): the safe plan built for
		// query 10 is wrong, and on query 21 MystiQ's modelled runtime error
		// (log-sum underflow on ~600-tuple groups, §VII) fires on about one
		// seed in twelve.
		Rows: append(cross([]string{"3", "18", "B17", "20"}, plan.Lazy, plan.Eager, plan.SafeMystiQ),
			cross([]string{"10", "21"}, plan.Lazy, plan.Eager)...),
		Why: "Paper Fig. 9 in memory: join build/probe and materialize, with conf used three ways on the same queries (one top sort+scan, one per join, MystiQ's independent projections); no storage calls.",
	},
	{
		Name: "lineage_unsafe", Dataset: mem02, Passes: 11,
		Rows: cross([]string{unsafeQuery}, plan.OBDD, plan.DTree, plan.MonteCarlo),
		Why:  "No hierarchical signature: 120k lineage clauses over 2.4k answers, most of the wall in lineage collection and compile/sample; only the obdd/dtree/prob kernels move it, sort+scan is bypassed.",
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics have none. Moves records, before anything is measured,
// which end-to-end metric on which workload the layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the gated metrics. Every workload reports every one, with
// tracing off. The issue's other end-to-end names (failed_frac,
// max_conf_err and the per-style / per-tier p50s) are zero or absent on
// some workloads, which the driver's contract forbids for a gated metric;
// they are reported ungated as e2e.* in the per-layer list, and failures
// gate through the result line's "correct"/"failed".
//
// The wall-clock bounds are wider than the 5-8% the issue asked for. On the
// sandbox this was built in, medians of ten 20 s runs of one binary spread
// by 4-25%, and two such sets an hour apart differed by up to 21% (README
// "Why it is sized the way it is"): contention on the host switches whole
// runs between a fast and a slow regime, so no statistic taken inside a run
// removes it. They get the contract's maximum, 0.25. alloc_mb_per_pass
// repeats to under 1% and is the tight gate.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "pass_p50_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: lower, Bound: 0.05},
}

// perLayer lists the traced run's metrics; layer = module name. A metric
// that has no meaning on a workload (storage on mem02, obdd on scan_disk)
// reads 0 there.
var perLayer = []metricDef{
	{"e2e.failed_frac", "ratio", lower, 0, "must be 0 everywhere"},
	{"e2e.max_conf_err", "prob", lower, 0, "0 on exact rows to 1e-9; MC's realised error on lineage_unsafe (<= eps on all but a delta share of the answers); MystiQ's 1.001 fudge (<= 1e-2) on join_styles"},
	{"e2e.lazy_p50_s", "s", lower, 0, "join_styles: the lazy third of pass_p50_s"},
	{"e2e.eager_p50_s", "s", lower, 0, "join_styles, conf_sortscan: the eager share of pass_p50_s"},
	{"e2e.mystiq_p50_s", "s", lower, 0, "join_styles: the MystiQ third of pass_p50_s"},
	{"e2e.obdd_p50_s", "s", lower, 0, "lineage_unsafe: U under the OBDD tier"},
	{"e2e.dtree_p50_s", "s", lower, 0, "lineage_unsafe: U under the d-tree tier"},
	{"e2e.mc_p50_s", "s", lower, 0, "lineage_unsafe: U under Monte Carlo"},

	{"tpch.generate_s", "s", lower, 0, "setup_s everywhere; no pass metric"},
	{"tpch.write_heap_s", "s", lower, 0, "setup_s on disk05"},
	{"tpch.open_catalog_s", "s", lower, 0, "setup_s on disk05"},

	{"stats.analyze_mem_s", "s", lower, 0, "setup_s on mem02"},
	{"stats.analyze_heap_s", "s", lower, 0, "setup_s on disk05 once the sidecar is gone"},

	{"storage.scan_raw_s", "s", lower, 0, "pass_p50_s on scan_disk (small: page fetch only)"},
	{"storage.scan_pages", "count", lower, 0, "exact; moves with the heap format"},
	{"storage.scan_mb_per_s", "MB/s", higher, 0, "pass_p50_s on scan_disk"},
	{"storage.decode_s", "s", lower, 0, "pass_p50_s on scan_disk: decode dwarfs raw fetch on Item"},
	{"storage.decode_tuples_per_s", "1/s", higher, 0, "pass_p50_s on scan_disk"},
	{"storage.pool_hit_ratio", "ratio", higher, 0, "~0 on disk05 by design; a pool change shows here first"},
	{"storage.pool_misses", "count", lower, 0, "per timed pass; exact"},
	{"storage.heap_bytes_per_tuple", "B/tuple", lower, 0, "scan_pages, scan_raw_s"},
	{"storage.extsort_s", "s", lower, 0, "pass_p50_s on conf_sortscan; not scan_disk"},
	{"storage.extsort_spills", "count", lower, 0, "exact; run files written sorting q1's answer"},

	{"plan.prepare_ms", "ms", lower, 0, "nothing (<1% everywhere); reported so it stays so"},
	{"plan.unattributed_frac", "ratio", lower, 0, "wall the returned Stats do not explain"},
	{"plan.mystiq_over_lazy_x", "x", higher, 0, "paper Fig. 9 claim on join_styles; reported, not gated"},
	{"plan.eager_over_lazy_x", "x", higher, 0, "paper Fig. 9 claim on join_styles; reported, not gated"},
	{"plan.auto_over_best_x", "x", lower, 0, "worst Auto / best fixed style over join_styles queries"},
	{"plan.ladder_fallthrough_s", "s", lower, 0, "lineage_unsafe: U under lazy with an OBDD budget that overflows"},
	{"plan.degraded_runs", "count", lower, 0, "must be 0 in ungoverned passes"},
	{"plan.retries", "count", lower, 0, "must be 0 without injected faults"},

	{"engine.answer_s", "s", lower, 0, "pass_p50_s on scan_disk; e2e.lazy_p50_s on join_styles"},
	{"engine.answer_rows", "count", lower, 0, "exact"},
	{"engine.rows_in_per_s", "1/s", higher, 0, "pass_p50_s on scan_disk"},
	{"engine.self_s", "s", lower, 0, "answer_s minus the storage replay"},
	{"engine.tuple_s_row", "s", lower, 0, "Stats.TupleTime with RowExec on"},
	{"engine.tuple_s_col", "s", lower, 0, "Stats.TupleTime with RowExec off (the default the passes run)"},

	{"conf.sortscan_s", "s", lower, 0, "pass_p50_s on conf_sortscan; not scan_disk"},
	{"conf.sortscan_rows_per_s", "1/s", higher, 0, "pass_p50_s on conf_sortscan"},
	{"conf.scans", "count", lower, 0, "exact; eager_p50_s on join_styles"},
	{"conf.sorts", "count", lower, 0, "exact"},
	{"conf.spilled_runs", "count", lower, 0, "exact; pass_p50_s on conf_sortscan"},
	{"conf.share", "ratio", lower, 0, "ProbTime / wall over the timed passes"},
	{"conf.lineage_collect_s", "s", lower, 0, "all three tier metrics on lineage_unsafe"},
	{"conf.lineage_clauses", "count", lower, 0, "exact"},

	{"obdd.compile_s", "s", lower, 0, "e2e.obdd_p50_s only"},
	{"obdd.nodes", "count", lower, 0, "exact"},
	{"obdd.nodes_per_s", "1/s", higher, 0, "e2e.obdd_p50_s"},
	{"obdd.memo_hit_ratio", "ratio", higher, 0, "e2e.obdd_p50_s"},

	{"dtree.compile_s", "s", lower, 0, "e2e.dtree_p50_s only"},
	{"dtree.steps", "count", lower, 0, "exact"},
	{"dtree.steps_per_s", "1/s", higher, 0, "e2e.dtree_p50_s"},
	{"dtree.memo_hit_ratio", "ratio", higher, 0, "e2e.dtree_p50_s"},

	{"prob.mc_s", "s", lower, 0, "e2e.mc_p50_s only"},
	{"prob.mc_samples", "count", lower, 0, "exact at a fixed seed"},
	{"prob.mc_samples_per_s", "1/s", higher, 0, "e2e.mc_p50_s"},

	{"fault.governed_slowdown_x", "x", lower, 0, "nothing gated; conf_sortscan pass under an 8 MiB MemBudget / ungoverned"},
	{"fault.governed_degraded_runs", "count", lower, 0, "nothing gated; watches the governor / grace-join path"},

	{"pool.w2_speedup_x", "x", higher, 0, "nothing gated (2 cores); Workers 2 / Workers 1 on U-obdd or 18-eager"},

	{"runtime.alloc_mb", "MB", lower, 0, "alloc_mb_per_pass"},
	{"runtime.gc_cycles", "count", lower, 0, "through GC, pass_p50_s on join_styles"},
	{"runtime.gc_pause_ms", "ms", lower, 0, "pass_p50_s on join_styles"},
	{"runtime.peak_rss_mb", "MB", lower, 0, "VmHWM of the workload's process"},
	{"runtime.slow_decile_x", "x", lower, 0, "p90 of latency / the query's own median"},

	{"trace.stage_cover", "ratio", higher, 0, "must stay in [0.85, 1.15] or the layer numbers are not trusted"},
	{"trace.overhead_frac", "ratio", lower, 0, "must stay below 0.10"},
}

// manifest is BENCHMARK.json in the schema the driver's contract fixes.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver lets one run's timed passes take.
const runSeconds = 20

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func manifestJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		panic(err) // static data; cannot fail
	}
	return buf.Bytes()
}
