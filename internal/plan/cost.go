package plan

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/fd"
	"repro/internal/logical"
	"repro/internal/query"
	"repro/internal/signature"
	"repro/internal/stats"
)

// This file is the planner's cost model: it prices the logical plan of
// every style for one query from the catalog's ANALYZE statistics, and the
// Auto style dispatches the cheapest applicable one. Costs are abstract
// tuple-operation units — they only need to *rank* plans, not predict
// wall-clock — and are derived by walking the same logical IR the lowering
// executes: scan and join costs from estimated cardinalities, sort+scan
// confidence passes from the operators' scan schedules, expected OBDD size
// from the signature width and clause count, and Monte Carlo sample counts
// from the (ε, δ) Hoeffding bound.

// Cost model constants (abstract units per tuple operation).
const (
	costScan     = 1.0  // stream one stored tuple
	costJoin     = 1.5  // push one tuple through a hash join (build or probe)
	costMaterial = 0.5  // materialize one intermediate tuple
	costSortUnit = 0.25 // one tuple · log2(n) of a sort pass
	costConfScan = 1.0  // one tuple of a sort+scan confidence pass
	// costOBDDNode prices one expansion step of the compile kernel's
	// ordered setting: a hashed memo probe and a linear cofactor split of
	// the residual clause set, far heavier than a sort comparison. (Fitted
	// when a step still built a hash-consed diagram node; not re-fitted.)
	costOBDDNode = 25.0
	// costSampleLit prices one literal evaluation inside a Monte Carlo
	// sample (calibrated so MC ≈ 2× OBDD at the default ε on the unsafe
	// TPC-H query, matching the measured ratio).
	costSampleLit = 0.15
	// costNoSigOBDD penalizes OBDD compilation without a signature-seeded
	// variable order.
	costNoSigOBDD = 3.0
	// costDTreeNode prices one d-tree decomposition step: each step scans
	// its residual clause set for common variables and connected
	// components, heavier than one ordered expansion step — but the price
	// never depends on a variable order, so without a signature the
	// d-tree tier undercuts penalized OBDD compilation.
	costDTreeNode = 40.0
)

func sortCost(n float64) float64 {
	if n < 2 {
		return costSortUnit
	}
	return costSortUnit * n * math.Log2(n)
}

// CostEstimate prices one style for one query.
type CostEstimate struct {
	Style Style
	// Applicable reports whether the style can run the query at all
	// (directly, not via the fallback chain).
	Applicable bool
	// Candidate reports whether Auto may dispatch the style: applicable,
	// not a baseline (MystiQ's runtime-failure modes exclude it), and not
	// approximate while exact styles exist (or RequireExact is set).
	Candidate bool
	// Cost is the total estimated cost in abstract tuple-operation units
	// (0 when inapplicable).
	Cost float64
	// Tuples is the estimated number of answer tuples entering the
	// confidence computation.
	Tuples float64
	// Reason documents inapplicability or candidate exclusion.
	Reason string
}

// costRel tracks the estimated shape of an intermediate during the cost
// walk: cardinality, per-attribute distinct counts, and the per-source leaf
// cardinalities feeding multiplicity estimates.
type costRel struct {
	card     float64
	dist     map[string]float64
	leafCard map[string]float64
}

// costState walks a logical plan, accumulating cost.
type costState struct {
	c       *Catalog
	q       *query.Query
	spec    Spec
	covered map[string]bool // sources aggregated away by eager operators
	cost    float64
	passes  int // sort+scan passes priced: the run's Stats.Scans
}

// sortScans prices n sort+scan passes over card tuples.
func (cs *costState) sortScans(n int, card float64) {
	cs.passes += n
	cs.cost += float64(n) * (sortCost(card) + card*costConfScan)
}

// opPasses is the number of sort+scan passes conf.AggregateFrom runs for
// the eager operator [s]: none for a table (the identity) or for a
// concatenation's propagation, which adds up its components', and a star's
// scheduled steps plus the pass that collapses it.
func opPasses(s signature.Sig) int {
	switch x := s.(type) {
	case signature.Star:
		steps, _ := signature.Schedule(x)
		return len(steps) + 1
	case signature.Concat:
		n := 0
		for _, c := range x {
			n += opPasses(c)
		}
		return n
	}
	return 0
}

// leafEstimate prices the leaf pipeline of one occurrence and returns its
// estimated shape.
func (cs *costState) leafEstimate(ref query.RelRef) costRel {
	baseRows := float64(cs.c.Rows(ref.Base))
	card := estimate(cs.c, cs.q, ref)
	cs.cost += baseRows * costScan
	dist := make(map[string]float64, len(ref.Attrs))
	for _, a := range ref.Attrs {
		d := card // all-distinct fallback without statistics
		if col := colStats(cs.c, ref, a); col != nil {
			d = stats.DistinctAfter(col.Distinct, baseRows, card)
		}
		dist[a] = math.Min(d, card)
	}
	return costRel{card: card, dist: dist, leafCard: map[string]float64{ref.Name: card}}
}

// node walks one IR subtree.
func (cs *costState) node(n logical.Node) (costRel, error) {
	switch x := n.(type) {
	case *logical.Project:
		if j, ok := x.Input.(*logical.Join); ok {
			l, err := cs.node(j.Left)
			if err != nil {
				return costRel{}, err
			}
			r, err := cs.node(j.Right)
			if err != nil {
				return costRel{}, err
			}
			return cs.join(l, r), nil
		}
		ref, ok := scanRefUnder(x)
		if !ok {
			return costRel{}, fmt.Errorf("plan: cannot cost logical node %s", x.Label())
		}
		return cs.leafEstimate(ref), nil
	case *logical.Conf:
		return cs.conf(x)
	default:
		return costRel{}, fmt.Errorf("plan: cannot cost logical node %T", n)
	}
}

// join prices a natural equi-join under the containment-of-values
// assumption: |L ⋈ R| = |L|·|R| / Π_a max(d_L(a), d_R(a)).
func (cs *costState) join(l, r costRel) costRel {
	card := l.card * r.card
	for a, dl := range l.dist {
		if dr, shared := r.dist[a]; shared {
			card /= math.Max(math.Max(dl, dr), 1)
		}
	}
	card = math.Max(card, 1)
	cs.cost += (l.card+r.card)*costJoin + card*costMaterial

	dist := make(map[string]float64, len(l.dist)+len(r.dist))
	for a, d := range l.dist {
		dist[a] = math.Min(d, card)
	}
	for a, d := range r.dist {
		if dl, shared := dist[a]; shared {
			dist[a] = math.Min(dl, d)
		} else {
			dist[a] = math.Min(d, card)
		}
	}
	leafCard := make(map[string]float64, len(l.leafCard)+len(r.leafCard))
	for s, c := range l.leafCard {
		leafCard[s] = c
	}
	for s, c := range r.leafCard {
		leafCard[s] = c
	}
	return costRel{card: card, dist: dist, leafCard: leafCard}
}

// groupCount estimates the number of groups when grouping rel by attrs,
// with every source outside covered still contributing its own variable
// column to the group key (multiplicity mult_s ≈ rows of s per attribute
// group).
func (cs *costState) groupCount(rel costRel, attrs []string, covered map[string]bool) float64 {
	g := 1.0
	for _, a := range attrs {
		if d, ok := rel.dist[a]; ok {
			g *= math.Max(d, 1)
		}
		if g >= rel.card {
			return rel.card
		}
	}
	for s, leaf := range rel.leafCard {
		if covered != nil && covered[s] {
			continue
		}
		ref, ok := cs.q.RelByName(s)
		if !ok {
			continue
		}
		// mult_s: expected rows of s per group of the kept attributes.
		dmax := 1.0
		for _, a := range attrs {
			if ref.HasAttr(a) {
				if d, ok := rel.dist[a]; ok {
					dmax = math.Max(dmax, d)
				}
			}
		}
		g *= math.Max(leaf/dmax, 1)
		if g >= rel.card {
			return rel.card
		}
	}
	return math.Min(math.Max(g, 1), rel.card)
}

// keptAttrs lists the data attributes present in the intermediate.
func keptAttrs(rel costRel) []string {
	out := make([]string, 0, len(rel.dist))
	for a := range rel.dist {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// conf prices a confidence-placement point.
func (cs *costState) conf(x *logical.Conf) (costRel, error) {
	rel, err := cs.node(x.Input)
	if err != nil {
		return costRel{}, err
	}
	switch {
	case x.Alg == logical.AlgSortScan && !x.Final:
		// Eager aggregation: the sort+scan passes each operator's schedule
		// runs, then the intermediate shrinks to its group count.
		for _, op := range x.Ops {
			cs.sortScans(opPasses(op), rel.card)
			for _, t := range signature.Tables(op) {
				cs.covered[t] = true
			}
		}
		g := cs.groupCount(rel, keptAttrs(rel), cs.covered)
		rel.card = g
		for a, d := range rel.dist {
			rel.dist[a] = math.Min(d, g)
		}
		return rel, nil
	case x.Alg == logical.AlgIndProject:
		// MystiQ π^ind: a sort+scan-equivalent group pass; duplicates
		// merge completely (no variable columns survive).
		cs.sortScans(1, rel.card)
		all := make(map[string]bool)
		for s := range rel.leafCard {
			all[s] = true
		}
		g := cs.groupCount(rel, x.Keep, all)
		dist := make(map[string]float64, len(x.Keep))
		for _, a := range x.Keep {
			if d, ok := rel.dist[a]; ok {
				dist[a] = math.Min(d, g)
			}
		}
		rel.card, rel.dist = g, dist
		return rel, nil
	case x.Alg == logical.AlgSortScan: // final
		// The schedule's steps and the final scan — none when the eager
		// stages left a bare table, whose answer is extracted unsorted.
		if _, bare := x.Sig.(signature.Table); !bare {
			steps, _ := signature.Schedule(x.Sig)
			cs.sortScans(len(steps)+1, rel.card)
		}
		return rel, nil
	default: // final lineage algorithms: OBDD, d-tree, MC, the ladder
		cs.passes++ // the lineage-collection grouping pass
		cs.cost += cs.lineageCost(x.Alg, rel, x.Sig != nil)
		return rel, nil
	}
}

// lineageCost prices the lineage-based confidence tiers over the
// materialized answer: collection (one sort-equivalent pass), then OBDD
// compilation — expected size ≈ clauses × signature width, penalized
// without a signature-seeded variable order — or d-tree decomposition
// (order-free: expected steps ≈ clauses × width, no signature modifier) —
// or Monte Carlo sampling with the (ε, δ) Hoeffding sample count.
func (cs *costState) lineageCost(alg logical.Alg, rel costRel, hasSig bool) float64 {
	cost := sortCost(rel.card) + rel.card*costConfScan // collect lineage
	answers := cs.groupCount(rel, cs.q.Head, nil)
	if len(cs.q.Head) == 0 {
		answers = 1
	}
	width := float64(len(cs.q.Rels))
	switch alg {
	case logical.AlgMC:
		samples := hoeffdingSamples(cs.spec)
		cost += answers * samples * width * costSampleLit
	case logical.AlgDTree:
		cost += rel.card * width * costDTreeNode
	default: // AlgOBDD, AlgLadder (optimistic: the chain usually compiles)
		nodes := rel.card * width // total clauses × width
		if !hasSig {
			nodes *= costNoSigOBDD
		}
		cost += nodes * costOBDDNode
	}
	return cost
}

// hoeffdingSamples is the per-answer sample count of the (ε, δ) bound,
// n ≥ ln(2/δ) / (2ε²), with the estimator's defaults for zero values.
func hoeffdingSamples(spec Spec) float64 {
	eps, delta := spec.MC.Epsilon, spec.MC.Delta
	if eps <= 0 {
		eps = 0.05
	}
	if delta <= 0 {
		delta = 0.01
	}
	n := math.Ceil(math.Log(2/delta) / (2 * eps * eps))
	if spec.MC.MaxSamples > 0 && float64(spec.MC.MaxSamples) < n {
		n = float64(spec.MC.MaxSamples)
	}
	return n
}

// costPlan prices one built logical plan: the walk's state, whose cost is
// the plan's, and the estimated answer tuples.
func costPlan(c *Catalog, q *query.Query, spec Spec, b *built) (*costState, float64, error) {
	cs := &costState{c: c, q: q, spec: spec, covered: make(map[string]bool)}
	root, ok := b.lp.Root.(*logical.Conf)
	if !ok {
		return nil, 0, fmt.Errorf("plan: logical plan for %s lacks a final confidence point", q.Name)
	}
	rel, err := cs.conf(root)
	if err != nil {
		return nil, 0, err
	}
	return cs, rel.card, nil
}

// EstimateCosts prices every style for the query, marking applicability and
// Auto candidacy. The catalog is analyzed (cached) first — the estimates
// use real row counts, distinct counts and histograms.
func EstimateCosts(c *Catalog, q *query.Query, sigma *fd.Set, spec Spec) ([]CostEstimate, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c.Analyze()
	_, sigErr := signature.Best(q, sigma)
	hasSig := sigErr == nil

	var out []CostEstimate
	for _, style := range []Style{Lazy, Eager, Hybrid, SafeMystiQ, OBDD, DTree, MonteCarlo} {
		ce := CostEstimate{Style: style}
		switch style {
		case Lazy, Eager, Hybrid:
			if !hasSig {
				ce.Reason = "no hierarchical signature (would take the OBDD→dtree→MC fallback ladder)"
				out = append(out, ce)
				continue
			}
			ce.Applicable, ce.Candidate = true, true
		case SafeMystiQ:
			if !hasSig {
				ce.Reason = "no hierarchical signature"
				out = append(out, ce)
				continue
			}
			ce.Applicable = true
			ce.Reason = "baseline with runtime-failure modes; never auto-dispatched"
		case OBDD, DTree:
			ce.Applicable, ce.Candidate = true, true
		case MonteCarlo:
			ce.Applicable = true
			switch {
			case spec.RequireExact:
				ce.Reason = "approximate; excluded under RequireExact"
			case hasSig:
				ce.Reason = "approximate; exact styles are applicable"
			default:
				ce.Candidate = true
			}
		}
		styleSpec := spec
		styleSpec.Style = style
		styleSpec.RequireExact = false
		b, err := buildLogical(c, q, sigma, styleSpec)
		if err != nil {
			ce.Applicable, ce.Candidate = false, false
			ce.Reason = err.Error()
			out = append(out, ce)
			continue
		}
		cs, tuples, err := costPlan(c, q, styleSpec, b)
		if err != nil {
			return nil, err
		}
		ce.Cost, ce.Tuples = cs.cost, tuples
		out = append(out, ce)
	}
	return out, nil
}

// ChooseStyle is the Auto planner's decision procedure: estimate every
// style's cost and return the cheapest candidate. On queries without a
// hierarchical signature the candidates honor the fallback ladder (OBDD
// and d-tree always, Monte Carlo only without RequireExact) — Auto never
// dispatches
// an approximate style when an exact one applies, and never Monte Carlo
// under RequireExact.
func ChooseStyle(c *Catalog, q *query.Query, sigma *fd.Set, spec Spec) (Style, []CostEstimate, error) {
	costs, err := EstimateCosts(c, q, sigma, spec)
	if err != nil {
		return 0, nil, err
	}
	best := -1
	for i, ce := range costs {
		if !ce.Candidate {
			continue
		}
		if best < 0 || ce.Cost < costs[best].Cost {
			best = i
		}
	}
	if best < 0 {
		return 0, costs, fmt.Errorf("plan: no applicable style for %s", q.Name)
	}
	return costs[best].Style, costs, nil
}

// chosenCost returns the estimated cost of the chosen style.
func chosenCost(costs []CostEstimate, chosen Style) float64 {
	for _, ce := range costs {
		if ce.Style == chosen {
			return ce.Cost
		}
	}
	return 0
}

// FormatCosts renders the per-style cost table of an Auto decision, sorted
// by the enumeration order, for EXPLAIN output and the bench tools.
func FormatCosts(costs []CostEstimate, chosen Style) string {
	var b []byte
	b = append(b, fmt.Sprintf("%-8s %-12s %-14s %s\n", "style", "est. cost", "est. tuples", "note")...)
	for _, ce := range costs {
		note := ce.Reason
		if ce.Style == chosen {
			if note != "" {
				note = "chosen; " + note
			} else {
				note = "chosen"
			}
		}
		cost := "-"
		tuples := "-"
		if ce.Applicable {
			cost = fmt.Sprintf("%.3g", ce.Cost)
			tuples = fmt.Sprintf("%.3g", ce.Tuples)
		}
		b = append(b, fmt.Sprintf("%-8s %-12s %-14s %s\n", ce.Style, cost, tuples, note)...)
	}
	return string(b)
}
