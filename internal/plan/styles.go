package plan

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/fault"
	"repro/internal/fd"
	"repro/internal/freelist"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/table"
)

// Style selects the plan family of §V.B / Fig. 7.
type Style int

// Plan styles.
const (
	// Lazy computes the answer tuples with an optimizer-chosen join order
	// and runs the confidence operator once, at the very top (Fig. 7c).
	Lazy Style = iota
	// Eager pushes probability-computation operators onto every table and
	// after every join, following the hierarchical join order (Fig. 7a).
	Eager
	// Hybrid joins a prefix of the relations, applies the valid operators
	// there, and finishes lazily (Fig. 7b).
	Hybrid
	// SafeMystiQ is the baseline: MystiQ's safe plans, evaluated without
	// variable columns (Fig. 2, §VII).
	SafeMystiQ
	// MonteCarlo computes the answer tuples lazily and estimates each
	// answer's confidence from its lineage DNF with an (ε, δ) Monte Carlo
	// sampler (naive or Karp–Luby, internal/prob). It works for every
	// conjunctive query — general conjunctive queries are #P-hard (§II) —
	// and is the last rung of the exact styles' fallback chain.
	MonteCarlo
	// OBDD computes the answer tuples lazily and Shannon-expands each
	// answer's lineage DNF under one variable order (internal/obdd, the
	// compilation of its ordered binary decision diagram): exact
	// confidences whenever the expansion fits the node budget — including
	// for many queries without a hierarchical signature — and certified
	// deterministic [lo, hi] bounds (reported via
	// Stats.Lineage.LowerBound/UpperBound) when it does not. Exact styles
	// try this compilation before falling back to Monte Carlo.
	OBDD
	// DTree computes the answer tuples lazily and decomposes each answer's
	// lineage DNF into a d-tree (internal/dtree): independent-AND and
	// independent-OR decompositions with Shannon cofactoring only as a
	// last resort. It needs no variable order, so lineage whose OBDD
	// explodes under every occurrence-derived order — e.g. many
	// variable-disjoint clause blocks with interleaved variables — still
	// resolves exactly; past the step budget it reports certified
	// deterministic [lo, hi] bounds like the OBDD style. Exact styles try
	// it after OBDD compilation and before Monte Carlo.
	DTree
	// Auto is the cost-based adaptive planner: it analyzes the catalog
	// (cached), enumerates the styles applicable to the query — respecting
	// the hierarchical→OBDD→d-tree→MC fallback ladder and RequireExact —
	// prices each with the cost model of cost.go, and dispatches the
	// cheapest. Stats.ChosenStyle and Stats.EstimatedCost report the
	// decision; the computed confidences are bit-identical to running the
	// chosen style directly.
	Auto
)

// allStyles lists every style; String, ParseStyle and StyleNames derive
// from it so the set cannot drift across surfaces.
var allStyles = []Style{Lazy, Eager, Hybrid, SafeMystiQ, MonteCarlo, OBDD, DTree, Auto}

// styleNames aligns with the Style constants (Lazy = 0, ...).
var styleNames = [...]string{"lazy", "eager", "hybrid", "mystiq", "mc", "obdd", "dtree", "auto"}

// String names the style.
func (s Style) String() string {
	if s >= 0 && int(s) < len(styleNames) {
		return styleNames[s]
	}
	return "?"
}

// StyleNames returns every style name joined by "|" — the canonical
// usage-string fragment for the command-line tools.
func StyleNames() string {
	names := make([]string, len(allStyles))
	for i, s := range allStyles {
		names[i] = s.String()
	}
	return strings.Join(names, "|")
}

// ParseStyle maps a style name (as printed by Style.String and accepted by
// the command-line tools) back to the Style.
func ParseStyle(name string) (Style, error) {
	for _, s := range allStyles {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("plan: unknown style %q (want %s)", name, StyleNames())
}

// Spec configures a plan run.
type Spec struct {
	Style Style
	// HybridPrefix is, for Hybrid, the number of relations (in lazy join
	// order) joined before the eager operator application; 0 defaults to
	// len(rels)-1 (aggregate before the last join).
	HybridPrefix int
	// Conf tunes the confidence operator's sorts.
	Conf conf.Options
	// MC tunes the Monte Carlo estimator (ε, δ, seed, method, workers) for
	// the MonteCarlo style and for the automatic fallback.
	MC prob.MCOptions
	// Compile tunes lineage compilation — the step budget and the anytime
	// target width of the one compile kernel (internal/dtree) — for the
	// OBDD and DTree styles and for both compilation rungs of the exact
	// styles' fallback ladder. Its Stop is the planner's: a deadline
	// watermark arms it.
	Compile dtree.Options
	// OBDD.NodeBudget, when positive, overrides Compile.NodeBudget on the
	// OBDD tier alone. Use Compile: the field remains only because the
	// benchmark suite still starves the ladder's first rung with it.
	OBDD struct{ NodeBudget int }
	// RowExec is ignored: the relational pipeline has one, columnar,
	// execution tier. The field remains only because the benchmark suite
	// still sets it.
	RowExec bool
	// RequireExact restores the paper's strict behaviour: exact styles
	// reject queries without a hierarchical signature instead of falling
	// through the OBDD and Monte Carlo tiers, and the OBDD style errors
	// instead of reporting certified bounds when the budget is exceeded.
	RequireExact bool
	// Workers sizes the shared worker pool driving every parallel stage of
	// the run: the partition-parallel sort+scan passes of the confidence
	// operator (placements, π^ind, the top operator), per-answer OBDD and
	// d-tree compilation and Monte Carlo estimation. The relational
	// pipeline below them — scans, filters, projections, hash joins —
	// streams on the calling goroutine at every worker count. 0 defaults to
	// GOMAXPROCS; 1 forces the classic single-threaded executor. The
	// computed confidences are bit-identical for every worker count.
	Workers int
	// Pool, when non-nil, supplies an existing worker pool instead of a
	// fresh one of Workers workers — the sprout.Engine facade passes its
	// pool here so every concurrently served query draws from one global
	// slot budget.
	Pool *pool.Pool
	// Trace, when set, collects a per-operator execution trace during the
	// run and attaches it to Stats.Trace: per-operator row counts, lineage
	// statistics, compilation and sampler detail. The trace's structural
	// attributes are deterministic across worker counts and batch sizes;
	// its loose attributes (timings, batch counts) are not.
	Trace bool
	// Metrics, when non-nil, receives engine-wide counters and latency
	// histograms for every run under this spec (queries, failures, tuple
	// and confidence times, per-tier effort totals). Recording happens
	// once per query — never on the per-row hot path — and a nil registry
	// costs nothing.
	Metrics *obs.Registry
	// MemBudget caps one run's governed working memory (bytes): external
	// sort buffers, hash-join build sides, and the lineage-compilation node
	// budgets. On pressure the run degrades — sorts spill earlier, hash
	// joins fall back to sort-merge (grace) mode, compilation tiers shrink
	// their budgets toward certified bounds — and Stats.Degraded reports
	// it. 0 means ungoverned (unless Mem alone is set, which installs a
	// counting-only governor).
	MemBudget int64
	// Mem is the engine-wide parent governor: each run's per-query governor
	// (created from MemBudget) chains to it, so concurrent queries share one
	// engine-level accounting root. nil means no engine-level accounting.
	Mem *fault.Governor
	// Watermark enables graceful deadline degradation of the confidence
	// tiers: this long before the run context's deadline, the OBDD and
	// d-tree tiers stop and return their current certified [lo, hi] bounds
	// and the Monte Carlo tier its running estimate with the (wider) ε it
	// actually achieved, instead of dying with context.DeadlineExceeded and
	// nothing to show. The promise holds only once those tiers have armed:
	// the relational pipeline feeding them is bounded by the context's
	// deadline alone, checked in engine.StreamCtx before it opens and once
	// per batch, and a deadline that passes there fails the run with
	// context.DeadlineExceeded. 0 disables the watermark.
	Watermark time.Duration
	// Retry re-runs a query whose failure is a transient injected I/O
	// fault (fault.IsTransient), with capped exponential backoff and
	// deterministic jitter. The zero value disables plan-level retries;
	// storage-level retries are configured on the fault injector itself.
	Retry fault.Retry
}

// Stats reports the execution breakdown the paper's figures use.
type Stats struct {
	Plan           string        // human-readable plan description
	Signature      string        // signature used for confidence computation
	TupleTime      time.Duration // computing + materializing answer tuples
	ProbTime       time.Duration // confidence computation
	AnswerTuples   int64         // answer tuples before duplicate elimination
	DistinctTuples int64         // distinct answer tuples
	// Scans counts confidence-computation passes over materialized
	// intermediates: eager aggregation steps plus the final sort+scan for
	// the exact styles, MystiQ's independent projections, and the single
	// lineage-collection grouping pass of the OBDD/d-tree/Monte Carlo
	// tiers — every rung of the fallback ladder reports it consistently.
	Scans int
	// Sorts, SpilledRuns and SpillBytes sum what the sort+scan placements
	// of the run — every eager step, every independent projection of a
	// MystiQ plan and the top operator — sorted and spilled: sort passes,
	// external-sort runs written to disk, and the bytes of those run files
	// (0 for the lineage tiers).
	Sorts       int
	SpilledRuns int
	SpillBytes  int64
	// Approximate marks non-exact confidences: (ε, δ) Monte Carlo
	// estimates, or OBDD/d-tree bound midpoints (then Lineage.LowerBound
	// and Lineage.UpperBound certify the truth deterministically).
	Approximate bool
	// Lineage is the record of the lineage tier that produced the result —
	// for a ladder run, of the rung that answered; its fields are described
	// on conf.TierStats. It is zero, with Tier "", when no lineage tier ran.
	Lineage conf.TierStats
	// CollectTime is the part of ProbTime a lineage tier (or the ladder)
	// spent collecting the answers' lineage, before any rung compiled or
	// sampled it — net of pulling the streamed answer, which is TupleTime.
	CollectTime time.Duration
	// GraceJoins counts governed hash joins of the run that fell back to
	// sort-merge (grace) mode under memory pressure.
	GraceJoins int64
	// ChosenStyle names the style the Auto planner dispatched ("" for
	// fixed-style runs).
	ChosenStyle string
	// EstimatedCost is the cost model's estimate (abstract tuple-operation
	// units) of the chosen plan under the Auto style (0 otherwise).
	EstimatedCost float64
	// Trace is the per-operator execution trace of the run (nil unless
	// Spec.Trace was set).
	Trace *obs.Trace
	// Degraded marks a run that completed in a reduced mode instead of
	// failing: the deadline watermark stopped a tier at its current
	// certified bounds, or the memory governor denied a reservation and the
	// run fell back to spill-earlier / grace-join / shrunk-budget paths.
	// The result is still correct under its (weaker) reported guarantees.
	Degraded bool
	// DegradeReason names what degraded: "deadline", "memory", or
	// "deadline+memory" ("" when Degraded is false).
	DegradeReason string
	// Retries counts plan-level re-runs after transient injected I/O
	// faults (Spec.Retry); storage-level retries are counted by the
	// injector, not here.
	Retries int64
}

// markDegraded folds one degradation cause into the stats, combining
// multiple causes into a "+"-joined reason.
func markDegraded(s *Stats, reason string) {
	s.Degraded = true
	switch {
	case s.DegradeReason == "":
		s.DegradeReason = reason
	case !strings.Contains(s.DegradeReason, reason):
		s.DegradeReason += "+" + reason
	}
}

// Total returns the end-to-end wall-clock time.
func (s *Stats) Total() time.Duration { return s.TupleTime + s.ProbTime }

// Result is a computed answer: distinct head tuples plus their confidence
// in the conf column.
type Result struct {
	Rows  *table.Relation
	Stats Stats
}

// Run executes q on the catalog under the given FDs with the requested plan
// style. Exact styles use the most precise signature available (FD-refined
// when the reduct is hierarchical, plain otherwise); queries with neither —
// #P-hard in general — fall through the ladder of tier.go: OBDD compilation
// of the per-answer lineage (still exact when it fits the compile budget),
// d-tree decomposition (likewise, under the same budget), then
// the Monte Carlo plan, which estimates confidences instead of erroring
// out. Set spec.RequireExact to turn the fallback back into an error.
func Run(c *Catalog, q *query.Query, sigma *fd.Set, spec Spec) (*Result, error) {
	return RunContext(context.Background(), c, q, sigma, spec)
}

// RunContext is Run with cancellation: every pipeline, sort pass, OBDD
// compilation and Monte Carlo sampler checks ctx and aborts with ctx.Err()
// shortly after it is cancelled.
func RunContext(ctx context.Context, c *Catalog, q *query.Query, sigma *fd.Set, spec Spec) (*Result, error) {
	p, err := Prepare(c, q, sigma, spec)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// Prepared is a query plan resolved once — validation done, style checked,
// signature computed, the logical plan IR built, fallback chain chosen,
// worker pool pinned — and runnable many times, concurrently, against the
// (frozen) catalog. It is the unit the sprout.Engine facade serves.
type Prepared struct {
	c     *Catalog
	q     *query.Query
	sigma *fd.Set
	spec  Spec
	pool  *pool.Pool

	// b is the built logical plan every run lowers from. For the Auto
	// style it is the plan of the chosen style, and chosen/costs describe
	// the decision.
	b      *built
	chosen Style
	costs  []CostEstimate
}

// Prepare resolves a plan without running it. Errors that do not depend on
// the data — invalid queries, unknown styles, RequireExact on a query
// without a hierarchical signature — surface here, once, instead of on
// every Run. The returned plan carries the logical IR every style lowers
// from; for Auto it additionally records the cost-based style choice.
func Prepare(c *Catalog, q *query.Query, sigma *fd.Set, spec Spec) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{c: c, q: q, sigma: sigma, spec: spec, pool: pool.Get(spec.Pool, spec.Workers)}
	if spec.Style == Auto {
		chosen, costs, err := ChooseStyle(c, q, sigma, spec)
		if err != nil {
			return nil, err
		}
		p.chosen = chosen
		p.costs = costs
		spec.Style = chosen
	}
	b, err := buildLogical(c, q, sigma, spec)
	if err != nil {
		return nil, err
	}
	p.b = b
	return p, nil
}

// Logical returns the logical plan IR the prepared query lowers from.
func (p *Prepared) Logical() *logical.Plan { return p.b.lp }

// Run executes the prepared plan. It is safe for concurrent use: every call
// carries its own execution state, and calls share only the worker pool and
// the read-only catalog.
func (p *Prepared) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec := p.spec
	if spec.Style == Auto {
		spec.Style = p.chosen
	}
	// Per-query memory governor, chained to the engine-wide parent: sorts,
	// governed joins and the confidence operator's buffers charge it; the
	// compilation tiers cap their budgets to its headroom.
	var gov *fault.Governor
	if spec.MemBudget > 0 || spec.Mem != nil {
		gov = fault.NewGovernor(spec.MemBudget, spec.Mem)
		spec.Conf.Mem = gov
	}
	var tr *obs.Trace
	if p.spec.Trace {
		tr = obs.NewTrace(p.q.Name, spec.Style.String(), p.pool.Workers())
	}
	// The deadline watermark is one latching Stop probe shared by every
	// lineage tier; exec.arm hands it (and the governor's headroom) to each.
	ex := exec{ctx: ctx, pool: p.pool, tr: tr,
		mem: gov, sortBudget: spec.Conf.SortBudget, tmpDir: spec.Conf.TmpDir,
		stop: watermarkStop(ctx, spec.Watermark), maxNodes: nodeHeadroom(gov)}
	// Thread the run's context and pool into the operator options so every
	// tier draws from the same slot budget and honours cancellation.
	spec.Conf.Ctx, spec.Conf.Pool = ctx, p.pool
	spec.MC.Pool = p.pool
	reg := p.spec.Metrics
	t0 := statsNow()
	// Every served run counts, failed or not; latency and work counters are
	// only recorded for completed runs. The nil-registry path must stay
	// zero-cost, so even the name concatenation is guarded.
	if reg != nil {
		reg.Counter("queries_total").Add(1)
		reg.Counter("queries_style_" + p.spec.Style.String() + "_total").Add(1)
	}
	reg.Gauge("queries_inflight").Add(1)
	res, retries, err := p.runAttempts(ex, spec)
	reg.Gauge("queries_inflight").Add(-1)
	if err != nil {
		reg.Counter("queries_failed_total").Add(1)
		return nil, err
	}
	res.Stats.Retries = retries
	if gov.Pressured() {
		markDegraded(&res.Stats, "memory")
	}
	if p.spec.Style == Auto {
		res.Stats.ChosenStyle = p.chosen.String()
		res.Stats.EstimatedCost = chosenCost(p.costs, p.chosen)
		res.Stats.Plan = "auto[" + p.chosen.String() + "] → " + res.Stats.Plan
	}
	res.Stats.Trace = tr
	if reg != nil {
		p.record(reg, &res.Stats, statsSince(t0))
	}
	return res, nil
}

// runAttempts executes the prepared plan up to Spec.Retry.MaxAttempts
// times: a failure that is a transient injected I/O fault is retried with
// capped exponential backoff (deterministic jitter, seeded by the Monte
// Carlo seed so chaos schedules replay identically); everything else —
// hard faults, cancellation, plan errors — surfaces immediately.
func (p *Prepared) runAttempts(ex exec, spec Spec) (*Result, int64, error) {
	attempts := 1
	if spec.Retry.Enabled() {
		attempts = spec.Retry.MaxAttempts
	}
	var retries int64
	for attempt := 1; ; attempt++ {
		res, err := p.runRecovered(ex, spec)
		if err == nil {
			return res, retries, nil
		}
		if attempt >= attempts || !fault.IsTransient(err) || ex.ctx.Err() != nil {
			return nil, retries, err
		}
		retries++
		time.Sleep(spec.Retry.Backoff(spec.MC.Seed, attempt))
	}
}

// runRecovered runs one attempt with a panic boundary: an operator or tier
// panic on the run's own goroutine becomes a typed *fault.PanicError (the
// worker-pool boundary in internal/pool does the same for pooled tasks),
// so a chaos-injected panic fails one query, not the process. The
// attempt's sort+scan passes output chunks owned by one scope of its own,
// which it releases once it has returned — its result rows materialized,
// or its error or panic surfaced — so the next attempt or query draws
// them.
func (p *Prepared) runRecovered(ex exec, spec Spec) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &fault.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	scope := &table.Scope{}
	defer scope.Release()
	spec.Conf.Scope = scope
	return runLogical(ex, p.c, p.q, p.b, spec)
}

// compileNodeCost is the rough per-node working-set estimate (bytes) used
// to translate governor headroom into OBDD node / d-tree step budgets.
const compileNodeCost = 64

// nodeHeadroom translates the governor's remaining bytes into the cap
// exec.arm puts on every compilation tier's budget. An absent or
// counting-only governor has unbounded headroom, a cap no budget reaches;
// 0 (nothing remaining) leaves the budgets alone.
func nodeHeadroom(gov *fault.Governor) int {
	rem := gov.Remaining()
	if rem <= 0 {
		return 0
	}
	return int(max(rem/compileNodeCost, 1))
}

// record publishes one finished run into the metrics registry — a handful
// of bulk atomic adds per query. Never called on the per-row path.
func (p *Prepared) record(reg *obs.Registry, s *Stats, wall time.Duration) {
	reg.Counter("answer_tuples_total").Add(s.AnswerTuples)
	reg.Counter("distinct_tuples_total").Add(s.DistinctTuples)
	reg.Counter("conf_scans_total").Add(int64(s.Scans))
	reg.Counter("conf_sorts_total").Add(int64(s.Sorts))
	reg.Counter("sort_spilled_runs_total").Add(int64(s.SpilledRuns))
	reg.Counter("sort_spill_bytes_total").Add(s.SpillBytes)
	// The tier record's effort goes to its tier's counter; every counter is
	// still added to, so each exists from the first query on.
	l := &s.Lineage
	var obddNodes, dtreeNodes int64
	switch l.Tier {
	case conf.TierOBDD:
		obddNodes = l.Nodes
	case conf.TierDTree:
		dtreeNodes = l.Nodes
	}
	reg.Counter("obdd_nodes_total").Add(obddNodes)
	reg.Counter("dtree_nodes_total").Add(dtreeNodes)
	reg.Counter("mc_samples_total").Add(l.Samples)
	reg.Counter("lineage_clauses_total").Add(l.Clauses)
	reg.Counter("lineage_dup_rows_total").Add(l.DupRows)
	reg.Counter("grace_joins_total").Add(s.GraceJoins)
	reg.Counter("memo_hits_total").Add(l.MemoHits)
	reg.Counter("memo_misses_total").Add(l.MemoMisses)
	if s.Approximate {
		reg.Counter("approximate_results_total").Add(1)
	}
	// The engine's free list is process-wide: its figures are totals since
	// start-up, so they are set, not added.
	fl := freelist.Read()
	reg.Gauge("buffer_reused_bytes").Set(fl.ReusedBytes)
	reg.Gauge("buffer_fresh_bytes").Set(fl.FreshBytes)
	reg.Gauge("buffer_idle_peak_bytes").Set(fl.IdlePeakBytes)
	reg.Histogram("query_seconds").Observe(wall.Seconds())
	reg.Histogram("tuple_seconds").Observe(s.TupleTime.Seconds())
	reg.Histogram("prob_seconds").Observe(s.ProbTime.Seconds())
	if s.CollectTime > 0 {
		reg.Histogram("lineage_collect_seconds").Observe(s.CollectTime.Seconds())
	}
}

// Answer materializes the answer tuples of q under the lazy join order:
// head data columns plus the V/P column pairs of every relation — exactly
// the input the confidence operator consumes. Exposed for the benchmark
// suite, whose layer probes (bench/layers.go) time the tuple phase and the
// confidence operator on this relation separately.
func Answer(c *Catalog, q *query.Query) (*table.Relation, error) {
	return answerPipeline(serialExec(), c, q, LazyOrder(c, q))
}

// answerPipeline materializes the left-deep answer tree over the given join
// order — the lazy skeleton, lowered through the shared logical IR path.
func answerPipeline(ex exec, c *Catalog, q *query.Query, order []query.RelRef) (*table.Relation, error) {
	st := &lowerState{ex: ex, c: c, q: q}
	src, err := st.source(logical.AnswerTree(q, order), nil)
	if err != nil {
		return nil, err
	}
	return src.Relation(ex.ctx, nil)
}

// treeForOrder returns the query tree used for hierarchy-driven join
// orders, preferring the FD-reduct tree.
func treeForOrder(q *query.Query, sigma *fd.Set) (*query.Tree, error) {
	if _, tree, err := fd.HierarchicalReduct(q, sigma); err == nil {
		return tree, nil
	}
	return query.TreeFor(q)
}
