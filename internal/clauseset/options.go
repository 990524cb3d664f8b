package clauseset

// DefaultNodeBudget caps a compilation's effort when Options.NodeBudget is
// zero. Beyond ~10^5 ordered (OBDD) expansion steps the lineage is firmly
// in blow-up territory and certified bounds (or the next tier) are the
// better tool; decomposition steps go further than ordered ones on
// independence-heavy lineage (one step can split off a whole component), so
// the same figure is a comfortable ceiling there too.
const DefaultNodeBudget = 1 << 17

// Options tunes one lineage compilation, in either setting of the kernel.
type Options struct {
	// NodeBudget caps the compilation effort in expansion steps — one per
	// expanded residual, in either setting, and again for the OBDD tier's
	// anytime bound mode; 0 means DefaultNodeBudget. Work beyond the budget resolves to certified
	// bounds instead of exact values.
	NodeBudget int
	// TargetWidth accepts an early bounded answer once hi-lo ≤ TargetWidth:
	// OBDD's anytime expansion stops there, d-tree compiles in passes of
	// geometrically growing step budgets and stops at the first narrow
	// enough. 0 spends the whole budget. It has no effect on formulas that
	// resolve exactly within the budget.
	TargetWidth float64
	// Stop, when non-nil, is polled during compilation; once it reports true
	// the remaining work resolves to the current certified bounds, as if the
	// budget were exhausted, and the result reports Stopped=true. The
	// planner arms it with a deadline-watermark probe so an expiring context
	// degrades to bounds instead of failing. A nil Stop never fires.
	Stop func() bool
}

// Budget is the effective budget: NodeBudget, or the default when unset.
func (o Options) Budget() int {
	if o.NodeBudget <= 0 {
		return DefaultNodeBudget
	}
	return o.NodeBudget
}

// Result is the outcome of compiling one formula.
type Result struct {
	// Exact reports whether P is the exact probability. When false, only
	// the certified bounds Lo ≤ Pr[φ] ≤ Hi are guaranteed and P is their
	// midpoint (so |P - Pr[φ]| ≤ (Hi-Lo)/2).
	Exact bool
	// P is the exact probability, or the bound midpoint.
	P float64
	// Lo and Hi bound the probability; Lo == Hi == P for exact results.
	Lo, Hi float64
	// Nodes counts the compilation effort in expansion steps: the residuals
	// the kernel expanded (terminals, memo hits and single-clause residuals
	// cost none), across every pass in the d-tree's TargetWidth mode; for an
	// OBDD answer bounded over budget, the abandoned expansion's steps plus
	// the anytime mode's.
	Nodes int
	// MemoHits and MemoMisses count residual-memo probes during this
	// formula's compilation. Their split is a deterministic function of the
	// formula (and, for OBDD, the order) — observability surfaces report it
	// per query.
	MemoHits, MemoMisses int64
	// HdrRecycled counts clause-set headers served from the builder's free
	// list instead of fresh arena storage during this compilation.
	HdrRecycled int64
	// Stopped reports that Options.Stop cut this computation short: the
	// bounds are certified but work was abandoned for time, not for the
	// budget.
	Stopped bool
}
