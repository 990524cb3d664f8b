package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/plan"
)

// options selects one workload run.
type options struct {
	workload string
	seed     int64
	scale    float64
	passes   int     // timed passes; 0 = the table's N, or -seconds when set
	seconds  float64 // time budget for the timed passes; 0 = by count
	trace    bool    // also make the traced run and report per-layer metrics
	traceOut string  // Chrome trace-event file; "" = none
	tmpRoot  string  // where the benchmark's temp dir is created
}

// metricValue is one reported number. N, Q1 and Q3 describe the samples an
// end-to-end value was taken from (passes, or builds for setup_s).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// rowResult is the per-row detail behind the workload's aggregates.
type rowResult struct {
	ID        string  `json:"id"`
	P50S      float64 `json:"p50_s"`
	TupleP50S float64 `json:"tuple_p50_s"`
	ProbP50S  float64 `json:"prob_p50_s"`
	ConfShare float64 `json:"conf_share"`
	Rows      int     `json:"rows"`
	Digest    string  `json:"digest"`
}

type checkResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"digest"`
	Problems  []string `json:"problems,omitempty"`
}

// workloadResult is one workload's section of the suite document.
type workloadResult struct {
	E2E    map[string]metricValue `json:"e2e"`
	Layers map[string]metricValue `json:"layers,omitempty"`
	Rows   []rowResult            `json:"rows"`
	Checks checkResult            `json:"checks"`
}

// runWorkload builds the dataset, checks and times the workload, and — with
// opts.trace — makes the traced run. Everything it writes lives in one temp
// dir, removed before it returns.
func runWorkload(ctx context.Context, opts options) (res *workloadResult, err error) {
	def := workloadByName(opts.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	tmp, err := os.MkdirTemp(opts.tmpRoot, ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
			err = rerr
		}
	}()
	w, err := newRunner(def, opts.seed, tmp)
	if err != nil {
		return nil, err
	}

	ds, phases, err := setUp(def.Dataset, opts.seed, opts.scale, tmp, setupBuilds[def.Dataset])
	if err != nil {
		return nil, err
	}
	defer ds.close()
	w.ds = ds
	layers := newLayerAcc()
	if opts.trace {
		if err := w.setupLayers(phases, layers); err != nil {
			return nil, err
		}
	}

	if err := w.reference(ctx); err != nil {
		return nil, err
	}
	w.warmUp(ctx)
	passes := opts.passes
	if passes == 0 && opts.seconds == 0 {
		passes = def.Passes
	}
	tp := w.timedPasses(ctx, passes, opts.seconds)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(tp.passes) == 0 {
		return nil, fmt.Errorf("workload %s: no timed pass ran", def.Name)
	}

	res = &workloadResult{E2E: w.endToEnd(phases, tp)}
	if opts.trace {
		tr := newTracer()
		w.layerMetrics(ctx, tr, layers, tp, res.E2E["pass_p50_s"].Value)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.traceOut != "" {
			if err := tr.writeChrome(opts.traceOut); err != nil {
				return nil, err
			}
		}
	}
	for n := w.leakedSpillFiles(); n > 0; n-- {
		w.chk.fail("spill file left under %s", filepath.Base(w.spill))
	}
	if opts.trace {
		layers.vals["e2e.failed_frac"] = ratio(float64(w.chk.failed), float64(w.chk.attempted))
		layers.vals["e2e.max_conf_err"] = w.chk.maxErr
		layers.vals["runtime.peak_rss_mb"] = peakRSSMB()
		res.Layers = make(map[string]metricValue, len(perLayer))
		for _, d := range perLayer {
			res.Layers[d.Name] = metricValue{Value: layers.vals[d.Name], Unit: d.Unit}
		}
	}
	res.Rows, res.Checks = w.rowResults(), w.checkResult()
	return res, nil
}

// endToEnd computes the gated metrics from the set-up builds and the timed
// passes.
func (w *runner) endToEnd(phases []setupPhases, tp timedPhase) map[string]metricValue {
	var setups, walls, rates, allocs []float64
	for _, p := range phases {
		setups = append(setups, p.total())
	}
	queries := float64(len(w.rows))
	for _, p := range tp.passes {
		walls = append(walls, p.wall)
		rates = append(rates, queries/p.wall)
		allocs = append(allocs, p.allocMB)
	}
	type sampled struct {
		value float64
		xs    []float64
	}
	vals := map[string]sampled{
		"setup_s":           {median(setups), setups},
		"pass_p50_s":        {median(walls), walls},
		"queries_per_s":     {queries * float64(len(walls)) / sum(walls), rates},
		"alloc_mb_per_pass": {sum(allocs) / float64(len(allocs)), allocs},
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		v := vals[d.Name]
		q1, _, q3 := quantiles(v.xs)
		out[d.Name] = metricValue{Value: v.value, Unit: d.Unit, N: len(v.xs), Q1: q1, Q3: q3}
	}
	return out
}

// setupLayers fills the tpch and stats layers from the set-up builds, and
// times the two ANALYZE paths the builds did not take.
func (w *runner) setupLayers(phases []setupPhases, a *layerAcc) error {
	var gen, write, open, analyze []float64
	for _, p := range phases {
		gen = append(gen, p.generate)
		write = append(write, p.writeHeap)
		open = append(open, p.openCatalog)
		analyze = append(analyze, p.analyzeMem)
	}
	a.vals["tpch.generate_s"] = median(gen)
	a.vals["tpch.write_heap_s"] = median(write)
	a.vals["tpch.open_catalog_s"] = median(open)
	a.vals["stats.analyze_mem_s"] = median(analyze)
	if w.ds.dir == "" {
		return nil
	}
	t, err := analyzeHeapFiles(w.ds)
	if err != nil {
		return err
	}
	a.vals["stats.analyze_heap_s"] = t
	a.vals["stats.analyze_mem_s"] = analyzeInMemory(w.ds.data)
	return nil
}

// layerMetrics makes the traced run and its probes and finishes the layer
// metrics that are rates or shares.
func (w *runner) layerMetrics(ctx context.Context, tr *tracer, a *layerAcc, tp timedPhase, passP50 float64) {
	v := a.vals
	staged, stagedUntraced, tracedWall := w.tracedPass(ctx, tr, a)
	v["trace.stage_cover"] = ratio(staged, stagedUntraced)
	v["trace.overhead_frac"] = ratio(tracedWall, passP50) - 1

	w.probeRowExec(ctx, a)
	w.probeWorkers2(ctx, a)
	if w.def.Governed {
		w.probeGoverned(ctx, a, passP50)
	}
	w.probeLadder(ctx, a)

	// Per-style latency: per pass, the summed latency of the style's rows.
	n := len(tp.passes)
	var wallSum, tupleSum, probSum float64
	var slow []float64
	for _, s := range []plan.Style{plan.Lazy, plan.Eager, plan.SafeMystiQ, plan.OBDD, plan.DTree, plan.MonteCarlo} {
		perPass := make([]float64, n)
		has := false
		for _, r := range w.rows {
			if r.Style == s {
				has = true
				for i := range perPass {
					perPass[i] += r.wall[i]
				}
			}
		}
		if has {
			v["e2e."+s.String()+"_p50_s"] = median(perPass)
		}
	}
	for _, r := range w.rows {
		wallSum += sum(r.wall)
		tupleSum += sum(r.tuple)
		probSum += sum(r.prob)
		m := median(r.wall)
		for _, x := range r.wall {
			slow = append(slow, ratio(x, m))
		}
		v["conf.scans"] += float64(r.scans)
	}
	// The paper's Fig. 9 ratios, over the queries run under all three
	// styles; a workload without such queries has no style comparison.
	if lazy, eager, mystiq := w.fig9Sums(); lazy > 0 {
		v["plan.mystiq_over_lazy_x"] = mystiq / lazy
		v["plan.eager_over_lazy_x"] = eager / lazy
		w.probeAuto(ctx, a)
	}
	v["plan.unattributed_frac"] = 1 - ratio(tupleSum+probSum, wallSum)
	v["plan.degraded_runs"] = float64(tp.degraded)
	v["plan.retries"] = float64(tp.retries)
	v["conf.share"] = ratio(probSum, wallSum)

	v["storage.scan_mb_per_s"] = ratio(a.scanBytes/1e6, v["storage.scan_raw_s"])
	v["storage.decode_tuples_per_s"] = ratio(a.scanTuples, v["storage.decode_s"])
	v["storage.heap_bytes_per_tuple"] = ratio(a.scanBytes, a.scanTuples)
	v["storage.pool_hit_ratio"] = ratio(float64(tp.poolHits), float64(tp.poolHits+tp.poolMs))
	v["storage.pool_misses"] = float64(tp.poolMs) / float64(n)
	v["engine.rows_in_per_s"] = ratio(a.rowsIn, v["engine.answer_s"])
	v["conf.sortscan_rows_per_s"] = ratio(a.sortscanRows, v["conf.sortscan_s"])
	v["obdd.nodes_per_s"] = ratio(v["obdd.nodes"], v["obdd.compile_s"])
	v["obdd.memo_hit_ratio"] = ratio(a.obddHits, a.obddHits+a.obddMisses)
	v["dtree.steps_per_s"] = ratio(v["dtree.steps"], v["dtree.compile_s"])
	v["dtree.memo_hit_ratio"] = ratio(a.dtreeHits, a.dtreeHits+a.dtreeMiss)
	v["prob.mc_samples_per_s"] = ratio(v["prob.mc_samples"], v["prob.mc_s"])

	for _, p := range tp.passes {
		v["runtime.alloc_mb"] += p.allocMB
	}
	v["runtime.gc_cycles"] = float64(tp.gcCycles)
	v["runtime.gc_pause_ms"] = tp.gcPauseMS
	v["runtime.slow_decile_x"] = percentile(slow, 0.9)
}

// fig9Sums sums the median latency of each plan family over the queries the
// workload runs under all of lazy, eager and MystiQ.
func (w *runner) fig9Sums() (lazy, eager, mystiq float64) {
	byQuery := make(map[string]map[plan.Style]float64)
	for _, r := range w.rows {
		if byQuery[r.Query] == nil {
			byQuery[r.Query] = make(map[plan.Style]float64)
		}
		byQuery[r.Query][r.Style] = median(r.wall)
	}
	for _, m := range byQuery {
		if l, e, q := m[plan.Lazy], m[plan.Eager], m[plan.SafeMystiQ]; l > 0 && e > 0 && q > 0 {
			lazy, eager, mystiq = lazy+l, eager+e, mystiq+q
		}
	}
	return lazy, eager, mystiq
}

func (w *runner) rowResults() []rowResult {
	out := make([]rowResult, len(w.rows))
	for i, r := range w.rows {
		out[i] = rowResult{
			ID: r.id, P50S: median(r.wall), TupleP50S: median(r.tuple), ProbP50S: median(r.prob),
			ConfShare: ratio(median(r.prob), median(r.wall)),
			Rows:      r.rows, Digest: fmt.Sprintf("%016x", r.digest),
		}
	}
	return out
}

// checkResult folds the rows' digests, in pass order, into one.
func (w *runner) checkResult() checkResult {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range w.rows {
		binary.LittleEndian.PutUint64(b[:], r.digest)
		h.Write(b[:])
	}
	return checkResult{
		Attempted: w.chk.attempted, Failed: w.chk.failed,
		Digest: fmt.Sprintf("%016x", h.Sum64()), Problems: w.chk.problems,
	}
}
