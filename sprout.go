// Package sprout is a from-scratch Go reproduction of SPROUT — the
// secondary-storage operator for exact confidence computation on
// tuple-independent probabilistic databases introduced by Olteanu, Huang and
// Koch ("SPROUT: Lazy vs. Eager Query Plans for Tuple-Independent
// Probabilistic Databases", ICDE 2009).
//
// A tuple-independent probabilistic database attaches an independent Boolean
// random variable (with a marginal probability) to every tuple. A conjunctive
// query then has, for each distinct answer tuple, a confidence: the total
// probability of the possible worlds in which the tuple is in the answer.
// SPROUT computes these confidences exactly and efficiently for hierarchical
// queries — and, via functional-dependency-based rewriting, for many
// non-hierarchical ones — by deriving a *query signature* that factorizes the
// answer's lineage into one-occurrence form and evaluating it in a small
// number of sort+scan passes over the answer.
//
// # Quick start
//
//	db := sprout.NewDB()
//	cust := db.MustCreateTable("Cust",
//	    sprout.IntCol("ckey"), sprout.StringCol("cname"))
//	cust.MustInsert(0.1, sprout.Int(1), sprout.String("Joe"))
//	...
//	q := sprout.NewQuery("Q").
//	    Select("odate").
//	    From("Cust", "ckey", "cname").
//	    From("Ord", "okey", "ckey", "odate").
//	    From("Item", "okey", "discount", "ckey").
//	    Where("Cust", "cname", sprout.Eq, sprout.String("Joe"))
//	res, err := db.Run(q, sprout.Lazy)
//
// Plan styles follow the paper: Lazy computes answer tuples first and runs
// the confidence operator once at the top; Eager pushes
// probability-computation operators onto every table and join; Hybrid mixes
// the two; MystiQ evaluates the safe-plan baseline the paper compares
// against. Three styles go beyond the paper: OBDD Shannon-expands each
// answer's lineage DNF under one variable order, as an ordered binary
// decision diagram's compilation does — exact confidences whenever the
// expansion fits a node budget, certified deterministic [lo, hi] bounds
// when it does not; DTree decomposes the
// lineage with an order-free d-tree (independent-OR partitions,
// independent-AND factoring, Shannon expansion as a last resort) under the
// same budget-and-bounds contract; and MonteCarlo estimates confidences
// with an (ε, δ) sampler. Together they answer the conjunctive queries
// whose exact confidence computation is #P-hard: exact styles fall through
// a four-tier ladder — sort+scan, OBDD compilation, d-tree decomposition
// (both still exact under their budgets), and finally Monte Carlo — on
// such queries, unless the RequireExact option is passed.
//
// The Auto style makes the choice itself: it analyzes the database (one
// cached ANALYZE pass per table, internal/stats), prices every applicable
// style's logical plan with the planner's cost model, and dispatches the
// cheapest — never an approximate style when an exact one applies, and
// never Monte Carlo under RequireExact. Explain renders the logical plan
// IR (internal/logical) a style would execute, plus Auto's per-style cost
// table.
package sprout

import (
	"context"
	"fmt"
	"time"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fd"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/signature"
	"repro/internal/table"
)

// PlanStyle selects how confidence computation is placed in the query plan
// (paper §V.B, Fig. 7).
type PlanStyle = plan.Style

// Plan styles.
const (
	// Lazy computes all answer tuples first, then runs the confidence
	// operator once (Fig. 7c) — the paper's usually-fastest choice.
	Lazy = plan.Lazy
	// Eager pushes confidence computation onto every table and join
	// (Fig. 7a), mirroring the structure of safe plans.
	Eager = plan.Eager
	// Hybrid applies the valid probability-computation operators after a
	// prefix of the joins and finishes lazily (Fig. 7b).
	Hybrid = plan.Hybrid
	// MystiQ is the safe-plan baseline of Dalvi and Suciu as implemented by
	// the MystiQ middleware: restrictive join orders, duplicate elimination
	// after every join, probabilities aggregated without variable columns.
	MystiQ = plan.SafeMystiQ
	// MonteCarlo estimates confidences from per-answer lineage DNFs with
	// an (ε, δ) Monte Carlo sampler instead of computing them exactly. It
	// accepts queries without a hierarchical signature (#P-hard in
	// general) — and is the last tier of the exact styles' fallback chain
	// on such queries unless RequireExact is passed.
	MonteCarlo = plan.MonteCarlo
	// OBDD Shannon-expands each answer's lineage DNF under one variable
	// order, sharing equal residuals as a reduced ordered binary decision
	// diagram does: exact confidences whenever the expansion fits the
	// node budget (WithNodeBudget) — including for many queries
	// without a hierarchical signature — and certified deterministic
	// [Stats.LowerBound, Stats.UpperBound] intervals around every true
	// confidence when it does not (the reported confidences are then
	// bound midpoints and Stats.Approximate is set). Exact styles try
	// OBDD compilation before falling back to d-tree decomposition and
	// Monte Carlo.
	OBDD = plan.OBDD
	// DTree decomposes each answer's lineage DNF with an order-free
	// d-tree: variable-disjoint clause partitions evaluate as independent
	// ORs, common variables factor out as independent ANDs, and Shannon
	// expansion splits only when neither rule applies. Exact under the
	// step budget (WithNodeBudget) — including on lineage whose every
	// variable order blows up an OBDD — with the same certified
	// [Stats.LowerBound, Stats.UpperBound] bound mode as OBDD when the
	// budget runs out. The exact styles' fallback ladder tries it between
	// OBDD and Monte Carlo.
	DTree = plan.DTree
	// Auto is the cost-based adaptive planner: it analyzes the database
	// (one cached ANALYZE pass per table), prices every applicable style
	// with the planner's cost model — respecting the fallback ladder and
	// RequireExact — and dispatches the cheapest. Stats.ChosenStyle and
	// Stats.EstimatedCost report the decision; confidences are
	// bit-identical to running the chosen style directly.
	Auto = plan.Auto
)

// CmpOp is a comparison operator for selections.
type CmpOp = engine.CmpOp

// Selection comparison operators.
const (
	Eq = engine.OpEq
	Ne = engine.OpNe
	Lt = engine.OpLt
	Le = engine.OpLe
	Gt = engine.OpGt
	Ge = engine.OpGe
)

// Value is a typed constant (column value or selection operand).
type Value = table.Value

// Int wraps an integer value.
func Int(v int64) Value { return table.Int(v) }

// Float wraps a float value.
func Float(v float64) Value { return table.Float(v) }

// String wraps a string value.
func String(v string) Value { return table.Str(v) }

// Bool wraps a boolean value.
func Bool(v bool) Value { return table.Bool(v) }

// ColumnDef declares one data column of a table.
type ColumnDef struct {
	Name string
	Kind table.Kind
}

// IntCol declares an integer column.
func IntCol(name string) ColumnDef { return ColumnDef{Name: name, Kind: table.KindInt} }

// FloatCol declares a float column.
func FloatCol(name string) ColumnDef { return ColumnDef{Name: name, Kind: table.KindFloat} }

// StringCol declares a string column.
func StringCol(name string) ColumnDef { return ColumnDef{Name: name, Kind: table.KindString} }

// DB is a tuple-independent probabilistic database: a set of tables whose
// tuples carry independent Boolean random variables, plus the declared
// functional dependencies used for signature refinement (§IV).
type DB struct {
	catalog *plan.Catalog
	sigma   *fd.Set
	nextVar prob.Var
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{catalog: plan.NewCatalog(), sigma: fd.NewSet()}
}

// Table is one tuple-independent table of a DB.
type Table struct {
	db *DB
	pt *table.ProbTable
}

// CreateTable registers a new table with the given data columns. The
// variable and probability columns of the paper's data model (§II.A) are
// managed internally: Insert assigns a fresh Boolean random variable to
// every tuple.
func (db *DB) CreateTable(name string, cols ...ColumnDef) (*Table, error) {
	dataCols := make([]table.Column, len(cols))
	for i, c := range cols {
		dataCols[i] = table.DataCol(c.Name, c.Kind)
	}
	pt := table.NewProbTable(name, dataCols...)
	if err := db.catalog.Add(pt); err != nil {
		return nil, err
	}
	return &Table{db: db, pt: pt}, nil
}

// MustCreateTable is CreateTable for program setup; it panics on error.
func (db *DB) MustCreateTable(name string, cols ...ColumnDef) *Table {
	t, err := db.CreateTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Insert appends a tuple that exists with probability p, assigning it a
// fresh Boolean random variable.
func (t *Table) Insert(p float64, values ...Value) error {
	t.db.nextVar++
	return t.pt.AddRow(t.db.nextVar, p, values...)
}

// MustInsert is Insert for program setup; it panics on error.
func (t *Table) MustInsert(p float64, values ...Value) {
	if err := t.Insert(p, values...); err != nil {
		panic(err)
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.pt.Name }

// Len returns the number of tuples.
func (t *Table) Len() int { return t.pt.Rel.Len() }

// AddTable registers an externally built probabilistic table (e.g. from the
// TPC-H generator). Variable ids must not collide with those issued by
// Insert; use either mechanism per DB.
func (db *DB) AddTable(pt *table.ProbTable) error { return db.catalog.Add(pt) }

// DeclareKey declares that key functionally determines all other attributes
// of the named table — the schema knowledge that refines signatures and
// rescues non-hierarchical queries (§IV). attrs must list the table's full
// attribute set as used in queries.
func (db *DB) DeclareKey(tableName string, key []string, attrs []string) {
	db.sigma.AddKey(tableName, key, attrs)
}

// DeclareFD declares a general functional dependency lhs → rhs.
func (db *DB) DeclareFD(tableName string, lhs, rhs []string) {
	db.sigma.Add(fd.FD{Rel: tableName, LHS: lhs, RHS: rhs})
}

// FDs exposes the declared dependency set.
func (db *DB) FDs() *fd.Set { return db.sigma }

// Catalog exposes the underlying planner catalog (for the benchmark
// harness and tools).
func (db *DB) Catalog() *plan.Catalog { return db.catalog }

// Query is a conjunctive query without self-joins in the paper's form
// π_A σ_φ (R1 ⋈ … ⋈ Rn): relations join on equally named attributes and φ
// is a conjunction of attribute-constant comparisons.
type Query struct {
	q *query.Query
}

// NewQuery starts building a named query.
func NewQuery(name string) *Query {
	return &Query{q: &query.Query{Name: name}}
}

// Select sets the projection list (empty = Boolean query).
func (b *Query) Select(attrs ...string) *Query {
	b.q.Head = append(b.q.Head, attrs...)
	return b
}

// From adds a relation occurrence reading the named base table; attrs
// positionally rename the table's data columns (shared names across
// occurrences are join conditions).
func (b *Query) From(tableName string, attrs ...string) *Query {
	b.q.Rels = append(b.q.Rels, query.Rel(tableName, attrs...))
	return b
}

// FromAlias adds a renamed occurrence of a base table — the paper's device
// for self-joins whose occurrences select disjoint tuples (§IV, TPC-H Q7).
func (b *Query) FromAlias(occurrence, base string, attrs ...string) *Query {
	b.q.Rels = append(b.q.Rels, query.Alias(occurrence, base, attrs...))
	return b
}

// Where adds a selection σ on one occurrence's attribute.
func (b *Query) Where(occurrence, attr string, op CmpOp, v Value) *Query {
	b.q.Sels = append(b.q.Sels, query.Selection{Rel: occurrence, Attr: attr, Op: op, Val: v})
	return b
}

// Internal returns the underlying query AST (for tools and tests).
func (b *Query) Internal() *query.Query { return b.q }

// String renders the query in π σ ⋈ notation.
func (b *Query) String() string { return b.q.String() }

// IsHierarchical reports whether the query is hierarchical (Def. II.1) —
// tractable on any tuple-independent database without FD support.
func (b *Query) IsHierarchical() bool { return b.q.IsHierarchical() }

// Row is one answer: the head values and the exact confidence.
type Row struct {
	Values     []Value
	Confidence float64
}

// Result holds the distinct answer tuples with confidences plus execution
// statistics.
type Result struct {
	Columns []string
	Rows    []Row
	Stats   plan.Stats
}

// RunOption tunes a Run call beyond the plan style (Monte Carlo accuracy,
// seeding, exactness requirements). Options validate their arguments:
// invalid values surface as clear errors from Run, RunBatch, Prepare and
// NewEngine instead of silently misbehaving.
type RunOption func(*plan.Spec) error

// WithEpsilonDelta sets the Monte Carlo accuracy target: each estimated
// confidence is within eps of the exact value with probability at least
// 1-delta. Both must lie strictly inside (0, 1); omit the option to keep
// the defaults (0.05, 0.01).
func WithEpsilonDelta(eps, delta float64) RunOption {
	return func(s *plan.Spec) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("sprout: WithEpsilonDelta: epsilon %g outside (0,1)", eps)
		}
		if delta <= 0 || delta >= 1 {
			return fmt.Errorf("sprout: WithEpsilonDelta: delta %g outside (0,1)", delta)
		}
		s.MC.Epsilon = eps
		s.MC.Delta = delta
		return nil
	}
}

// WithSeed fixes the estimator's random seed, making approximate results
// reproducible: the same seed, query and data give identical estimates.
func WithSeed(seed int64) RunOption {
	return func(s *plan.Spec) error { s.MC.Seed = seed; return nil }
}

// WithMaxSamples caps the per-answer sample count; capped estimates report
// the weaker ε they actually achieve via Result.Stats.Epsilon. The cap must
// be positive; omit the option for the default.
func WithMaxSamples(n int) RunOption {
	return func(s *plan.Spec) error {
		if n <= 0 {
			return fmt.Errorf("sprout: WithMaxSamples(%d): sample cap must be ≥ 1 (omit the option for the default)", n)
		}
		s.MC.MaxSamples = n
		return nil
	}
}

// WithWorkers sizes the shared worker pool driving every parallel stage of
// a run: the partition-parallel sort+scan passes of the confidence
// operator, per-answer OBDD and d-tree compilation, and Monte Carlo
// estimation; scans and joins stream serially at every count. The count must
// be ≥ 1 (1 forces the classic single-threaded executor); omit the option
// for the GOMAXPROCS default. Computed confidences are bit-identical for
// every worker count — only the wall-clock changes.
func WithWorkers(n int) RunOption {
	return func(s *plan.Spec) error {
		if n <= 0 {
			return fmt.Errorf("sprout: WithWorkers(%d): worker count must be ≥ 1 (omit the option for the GOMAXPROCS default)", n)
		}
		s.Workers = n
		return nil
	}
}

// WithNodeBudget caps the per-answer compilation effort — the compile
// kernel's expansion steps, in both its ordered (OBDD) and decomposing
// (d-tree) settings, and the anytime modes' expansion budgets — for the
// OBDD and DTree styles and the exact styles' fallback tiers. The budget
// must be positive; omit the option for the defaults. Answers whose
// compilation exceeds the budget are reported as certified [lo, hi] bounds
// under the OBDD and DTree styles, and passed down the ladder by the exact
// styles.
func WithNodeBudget(n int) RunOption {
	return func(s *plan.Spec) error {
		if n <= 0 {
			return fmt.Errorf("sprout: WithNodeBudget(%d): node budget must be ≥ 1 (omit the option for the default)", n)
		}
		s.Compile.NodeBudget = n
		return nil
	}
}

// WithTargetWidth stops the OBDD and d-tree anytime modes early once the
// certified interval reaches the given width (hi-lo ≤ w), instead of
// spending the whole node budget; 0 tightens until the budget is spent.
func WithTargetWidth(w float64) RunOption {
	return func(s *plan.Spec) error {
		if w < 0 || w >= 1 {
			return fmt.Errorf("sprout: WithTargetWidth(%g): width must lie in [0,1)", w)
		}
		s.Compile.TargetWidth = w
		return nil
	}
}

// WithTrace collects a per-operator execution trace during the run and
// attaches it to Result.Stats.Trace: one span per scan, join and
// confidence-computation tier, annotated with row counts, lineage shape,
// compilation detail (OBDD nodes, d-tree steps, memo hits, sampler
// statistics) and wall-clock durations. Tracing allocates a small tree per
// run; the hot per-tuple paths stay untouched. See Trace.Render and
// Trace.JSON for the two output forms.
func WithTrace() RunOption {
	return func(s *plan.Spec) error { s.Trace = true; return nil }
}

// RequireExact rejects queries without a hierarchical signature instead of
// falling back to OBDD compilation or Monte Carlo estimation: Run then
// fails exactly where the paper's framework ends (#P-hard queries, §II).
// Under the OBDD style it forbids bound-mode results, and under Auto it
// removes Monte Carlo from the candidate set.
func RequireExact() RunOption {
	return func(s *plan.Spec) error { s.RequireExact = true; return nil }
}

// WithMemoryBudget caps one run's governed working memory at the given
// number of bytes: external sort buffers, hash-join build sides and the
// lineage-compilation budgets all charge a per-query governor. On pressure
// the run degrades instead of failing — sorts spill to disk earlier, hash
// joins fall back to sort-merge (grace) mode, the OBDD/d-tree tiers shrink
// their node budgets toward certified bounds — and Result.Stats.Degraded
// reports it with DegradeReason "memory". The budget must be positive;
// omit the option for ungoverned execution. Governed runs keep the exact
// same answers; only memory use, wall-clock and (for shrunk compilation
// budgets) bound widths change.
func WithMemoryBudget(bytes int64) RunOption {
	return func(s *plan.Spec) error {
		if bytes <= 0 {
			return fmt.Errorf("sprout: WithMemoryBudget(%d): budget must be ≥ 1 byte (omit the option for ungoverned execution)", bytes)
		}
		s.MemBudget = bytes
		return nil
	}
}

// WithDeadlineWatermark turns a context deadline into graceful degradation
// of the confidence tiers: the given margin before the deadline, the OBDD
// and d-tree tiers stop and return their current certified [lo, hi] bounds
// (Result.Stats.LowerBound/UpperBound still contain every true confidence)
// and the Monte Carlo tier returns its running estimate with the weaker ε it
// actually achieved — instead of the run dying with
// context.DeadlineExceeded and nothing to show. Result.Stats.Degraded is set
// with DegradeReason "deadline". Only the tiers degrade: the relational
// pipeline that feeds them is bounded by the deadline alone, checked once
// per batch, so a deadline that passes before the tiers arm still fails the
// run with context.DeadlineExceeded. The margin must be positive; omit the
// option (or run without a deadline) to keep strict deadline semantics.
func WithDeadlineWatermark(margin time.Duration) RunOption {
	return func(s *plan.Spec) error {
		if margin <= 0 {
			return fmt.Errorf("sprout: WithDeadlineWatermark(%v): margin must be positive (omit the option for strict deadlines)", margin)
		}
		s.Watermark = margin
		return nil
	}
}

// WithRetryPolicy retries a query whose failure is a transient I/O fault
// (as classified by the storage fault plane) up to maxAttempts total
// attempts, sleeping between attempts with capped exponential backoff —
// base·2^(attempt-1) up to max — plus deterministic jitter.
// Result.Stats.Retries counts the re-runs. maxAttempts must be ≥ 1 (1
// disables retrying); base and max must be positive with base ≤ max.
func WithRetryPolicy(maxAttempts int, base, max time.Duration) RunOption {
	return func(s *plan.Spec) error {
		if maxAttempts < 1 {
			return fmt.Errorf("sprout: WithRetryPolicy: maxAttempts %d must be ≥ 1", maxAttempts)
		}
		if base <= 0 || max <= 0 || base > max {
			return fmt.Errorf("sprout: WithRetryPolicy: backoff bounds %v..%v must be positive and ordered", base, max)
		}
		s.Retry = fault.Retry{MaxAttempts: maxAttempts, Base: base, Max: max}
		return nil
	}
}

// applyOptions folds options into a spec, surfacing the first validation
// error.
func applyOptions(spec *plan.Spec, opts []RunOption) error {
	for _, o := range opts {
		if err := o(spec); err != nil {
			return err
		}
	}
	return nil
}

// Run evaluates the query with the given plan style. Queries that are not
// tractable for the sort+scan operator (no hierarchical signature exists
// even under the database's declared FDs; #P-hard in general, §II) fall
// through the chain: OBDD lineage compilation, then order-free d-tree
// decomposition — each still exact when the per-answer compilation fits
// its budget — and finally Monte Carlo confidence estimation (check
// Result.Stats.Approximate). Pass the RequireExact option to reject such
// queries instead.
func (db *DB) Run(q *Query, style PlanStyle, opts ...RunOption) (*Result, error) {
	spec := plan.Spec{Style: style}
	if err := applyOptions(&spec, opts); err != nil {
		return nil, err
	}
	return db.RunSpec(q, spec)
}

// RunSpec evaluates with full plan control (hybrid prefix, sort budgets).
func (db *DB) RunSpec(q *Query, spec plan.Spec) (*Result, error) {
	return db.runSpecCtx(context.Background(), q, spec)
}

func (db *DB) runSpecCtx(ctx context.Context, q *Query, spec plan.Spec) (*Result, error) {
	res, err := plan.RunContext(ctx, db.catalog, q.q, db.sigma, spec)
	if err != nil {
		return nil, err
	}
	return wrapResult(q, res), nil
}

func wrapResult(q *Query, res *plan.Result) *Result {
	out := &Result{
		Columns: append(append([]string(nil), q.q.Head...), conf.ConfCol),
		Stats:   res.Stats,
	}
	for _, row := range res.Rows.Rows {
		n := len(row)
		out.Rows = append(out.Rows, Row{
			Values:     append([]Value(nil), row[:n-1]...),
			Confidence: row[n-1].F,
		})
	}
	return out
}

// Engine is the concurrency-safe serving facade over a loaded database: it
// owns one shared worker pool (sized by WithWorkers at construction) from
// which every parallel stage of every concurrently served query draws, so
// total parallelism stays bounded no matter how many requests are in
// flight. Construct it once after loading data and declaring FDs — the
// catalog must not be modified while the engine serves — then call Run,
// RunBatch and Prepare from any number of goroutines.
//
// Run accepts a context: cancelling it aborts the run's pipelines, sort
// passes, OBDD compilations and Monte Carlo samplers within a few thousand
// tuples or samples.
type Engine struct {
	db       *DB
	defaults plan.Spec
	pool     *pool.Pool
	metrics  *obs.Registry
	// mem is the engine-wide memory-accounting root: every budgeted run
	// (WithMemoryBudget) charges a per-query child of it, so concurrent
	// governed queries share one accounting tree.
	mem *fault.Governor
}

// NewEngine builds a serving engine over the database. opts set the
// defaults every Run inherits (worker count, Monte Carlo accuracy, OBDD
// budget, ...); per-call options override them. Invalid option values —
// WithWorkers(n ≤ 0), WithEpsilonDelta outside (0,1), WithNodeBudget(≤ 0)
// — are rejected here with a clear error. A per-call WithWorkers that
// differs from the engine's default gives that run its own transient pool
// of the requested size instead of the engine's shared one — useful for
// forcing a serial run — at the price of stepping outside the engine's
// global parallelism budget. Requesting exactly the default worker count
// keeps the shared pool.
func (db *DB) NewEngine(opts ...RunOption) (*Engine, error) {
	spec := plan.Spec{}
	if err := applyOptions(&spec, opts); err != nil {
		return nil, err
	}
	return &Engine{db: db, defaults: spec, pool: pool.New(spec.Workers),
		metrics: obs.New(), mem: fault.NewGovernor(0, nil)}, nil
}

// MemoryInUse reports the bytes currently reserved by budgeted
// (WithMemoryBudget) runs across the whole engine; MemoryHighWater the
// peak. Ungoverned runs do not account their memory and report zero.
func (e *Engine) MemoryInUse() int64 { return e.mem.Used() }

// MemoryHighWater reports the peak engine-wide governed reservation.
func (e *Engine) MemoryHighWater() int64 { return e.mem.HighWater() }

// Workers returns the engine pool's total worker count.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Metrics returns a point-in-time snapshot of the engine-wide counters,
// gauges and latency histograms every Run has been feeding: queries served
// (total, per style, failed), answer and distinct tuple counts, confidence
// tier work (scans, sort passes, spilled runs and spill bytes, OBDD nodes,
// d-tree steps, Monte Carlo samples, memo hits/misses) and
// query/tuple/probability latency distributions. Safe for
// concurrent use; counters are cumulative since NewEngine.
func (e *Engine) Metrics() obs.Snapshot { return e.metrics.Snapshot() }

// MetricsRegistry exposes the engine's live metrics registry, for mounting
// the observability HTTP endpoints: obs.Handler(e.MetricsRegistry()) serves
// /metrics, /healthz and /debug/pprof. The registry is engine-owned and
// always live — this accessor only shares it.
func (e *Engine) MetricsRegistry() *obs.Registry { return e.metrics }

// spec assembles the effective plan spec of one call: engine defaults, then
// style, then per-call options. Calls normally draw from the engine's
// shared pool; a per-call WithWorkers that changes the worker count
// overrides it with a transient pool of the requested size for that run —
// honoring the option (WithWorkers(1) really is the single-threaded
// executor) at the price of stepping outside the engine's global
// parallelism budget for that one call.
func (e *Engine) spec(style PlanStyle, opts []RunOption) (plan.Spec, error) {
	spec := e.defaults
	spec.Style = style
	spec.Metrics = e.metrics
	if err := applyOptions(&spec, opts); err != nil {
		return plan.Spec{}, err
	}
	if spec.Workers == e.defaults.Workers {
		spec.Pool = e.pool
	}
	if spec.MemBudget > 0 {
		spec.Mem = e.mem
	}
	return spec, nil
}

// Run evaluates one query on the engine, like DB.Run but concurrency-safe,
// pool-shared and cancellable. A nil ctx means no cancellation.
func (e *Engine) Run(ctx context.Context, q *Query, style PlanStyle, opts ...RunOption) (*Result, error) {
	spec, err := e.spec(style, opts)
	if err != nil {
		return nil, err
	}
	return e.db.runSpecCtx(ctx, q, spec)
}

// PreparedQuery is a query resolved against the engine once — validated,
// style checked, signature and fallback chain chosen — and runnable many
// times concurrently.
type PreparedQuery struct {
	q  *Query
	pp *plan.Prepared
}

// Prepare resolves a query once. Static errors (invalid query, unknown
// style, RequireExact on an intractable query) surface here instead of on
// every Run.
func (e *Engine) Prepare(q *Query, style PlanStyle, opts ...RunOption) (*PreparedQuery, error) {
	spec, err := e.spec(style, opts)
	if err != nil {
		return nil, err
	}
	pp, err := plan.Prepare(e.db.catalog, q.q, e.db.sigma, spec)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{q: q, pp: pp}, nil
}

// Run executes the prepared query. Safe for concurrent use.
func (p *PreparedQuery) Run(ctx context.Context) (*Result, error) {
	res, err := p.pp.Run(ctx)
	if err != nil {
		return nil, err
	}
	return wrapResult(p.q, res), nil
}

// BatchItem is one request of an Engine.RunBatch call.
type BatchItem struct {
	Query *Query
	Style PlanStyle
	Opts  []RunOption
}

// BatchResult pairs one batch item's outcome with its error; exactly one of
// Result and Err is non-nil.
type BatchResult struct {
	Result *Result
	Err    error
}

// RunBatch evaluates a batch of queries concurrently on the engine's worker
// pool and returns their results in request order. One query's failure does
// not disturb the others; cancelling ctx marks every not-yet-finished item
// with the context's error.
func (e *Engine) RunBatch(ctx context.Context, items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	// The per-item closure never returns an error: a query failure is that
	// item's result, not a reason to stop the batch.
	e.pool.Do(ctx, len(items), func(i int) error {
		r, err := e.Run(ctx, items[i].Query, items[i].Style, items[i].Opts...)
		out[i] = BatchResult{Result: r, Err: err}
		return nil
	})
	for i := range out {
		if out[i].Result == nil && out[i].Err == nil && ctx != nil {
			out[i].Err = ctx.Err() // item never ran: the batch was cancelled
		}
	}
	return out
}

// Signature returns the query's signature under the database's FDs — the
// static structure driving the confidence operator (§III); useful for
// explaining plans.
func (db *DB) Signature(q *Query) (string, error) {
	s, err := signature.Best(q.q, db.sigma)
	if err != nil {
		return "", err
	}
	return s.String(), nil
}

// Explain renders the logical plan IR the style would execute for the
// query — scans, selections, projections, joins and confidence-placement
// points — without running it. Under the Auto style it additionally prints
// the cost-based decision: the chosen style and the per-style cost table
// derived from the catalog's ANALYZE statistics. Options (RequireExact,
// WithEpsilonDelta, …) influence the plan exactly as they would a Run.
func (db *DB) Explain(q *Query, style PlanStyle, opts ...RunOption) (string, error) {
	spec := plan.Spec{Style: style}
	if err := applyOptions(&spec, opts); err != nil {
		return "", err
	}
	return plan.Explain(db.catalog, q.q, db.sigma, spec)
}

// Analyze gathers the catalog statistics the cost-based planner consumes —
// one pass per base table — and caches them. The Auto style and Explain
// trigger it implicitly; call it explicitly to pay the ANALYZE cost at load
// time instead of on the first Auto query.
func (db *DB) Analyze() { db.catalog.Analyze() }

// NumScans reports how many sort+scan passes the confidence operator needs
// for this query (Prop. V.10): 1 for signatures with the 1scan property.
func (db *DB) NumScans(q *Query) (int, error) {
	s, err := signature.Best(q.q, db.sigma)
	if err != nil {
		return 0, err
	}
	return signature.NumScans(s), nil
}

// Format renders a result as an aligned text table (for examples/tools).
func (r *Result) Format() string {
	out := ""
	for _, c := range r.Columns {
		out += fmt.Sprintf("%-22s", c)
	}
	out += "\n"
	for _, row := range r.Rows {
		for _, v := range row.Values {
			out += fmt.Sprintf("%-22s", v.String())
		}
		out += fmt.Sprintf("%-22.6g", row.Confidence)
		out += "\n"
	}
	return out
}
