// Package logical defines the planner's logical plan IR: a typed operator
// tree of scans, selections, projections, joins and confidence-placement
// points that every plan style — lazy, eager, hybrid, the MystiQ safe-plan
// baseline, OBDD compilation and Monte Carlo estimation — lowers from. The
// IR separates *what* a plan does (its operator tree, printable by EXPLAIN)
// from *how* internal/plan executes it (pipelined engine operators,
// materialization points, the confidence tiers), so the per-style builders
// share one construction path and the cost model can price a plan without
// running it.
package logical

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/query"
	"repro/internal/signature"
)

// Mode selects how tuple uncertainty flows through the plan.
type Mode int

// Plan modes.
const (
	// ModeLineage carries one V/P column pair per source table through
	// every operator — SPROUT's data model (§II.A), required by the
	// sort+scan confidence operator and by lineage collection.
	ModeLineage Mode = iota
	// ModeProb carries the P columns alone, no variables — MystiQ's model,
	// where correctness rests on the safe join order: an independent
	// projection multiplies a row's P columns and leaves one behind.
	ModeProb
)

// Alg identifies the algorithm of a confidence-placement point.
type Alg int

// Confidence algorithms.
const (
	// AlgSortScan is the paper's sort+scan confidence operator driven by a
	// hierarchical signature (final) or a list of valid
	// probability-computation operators (eager placement points).
	AlgSortScan Alg = iota
	// AlgIndProject is MystiQ's independent projection π^ind: group by the
	// kept attributes and OR the probabilities of the assumed-independent
	// duplicates.
	AlgIndProject
	// AlgOBDD compiles each answer's lineage DNF into a reduced OBDD.
	AlgOBDD
	// AlgDTree decomposes each answer's lineage DNF into a d-tree
	// (independent-AND / independent-OR / Shannon as last resort) — exact
	// without needing a variable order, budgeted bounds beyond.
	AlgDTree
	// AlgMC estimates each answer's confidence with an (ε, δ) Monte Carlo
	// sampler over its lineage DNF.
	AlgMC
	// AlgLadder is the exact styles' fallback chain on queries without a
	// hierarchical signature: OBDD compilation under the node budget,
	// d-tree decomposition when the ordered expansion blows up, Monte Carlo
	// when decomposition exceeds the budget too.
	AlgLadder
)

// String names the algorithm as printed by EXPLAIN.
func (a Alg) String() string {
	switch a {
	case AlgSortScan:
		return "sort+scan"
	case AlgIndProject:
		return "π^ind"
	case AlgOBDD:
		return "obdd"
	case AlgDTree:
		return "dtree"
	case AlgMC:
		return "mc"
	case AlgLadder:
		return "obdd→dtree→mc"
	default:
		return "?"
	}
}

// Node is one operator of the logical plan tree.
type Node interface {
	// Inputs returns the child operators (left before right).
	Inputs() []Node
	// Label renders the operator for the EXPLAIN tree, one line, no
	// indentation.
	Label() string
}

// Scan reads one relation occurrence of the query: the base table under the
// occurrence renaming.
type Scan struct {
	Ref query.RelRef
}

// Inputs returns no children; scans are leaves.
func (s *Scan) Inputs() []Node { return nil }

// Label renders the scan.
func (s *Scan) Label() string {
	name := s.Ref.Name
	if s.Ref.Base != s.Ref.Name {
		name = s.Ref.Name + "=" + s.Ref.Base
	}
	return fmt.Sprintf("scan %s(%s)", name, strings.Join(s.Ref.Attrs, ","))
}

// Select filters its input by a conjunction of attribute–constant
// predicates.
type Select struct {
	Input Node
	Sels  []query.Selection
}

// Inputs returns the filtered input.
func (s *Select) Inputs() []Node { return []Node{s.Input} }

// Label renders the selection.
func (s *Select) Label() string {
	parts := make([]string, len(s.Sels))
	for i, sel := range s.Sels {
		parts[i] = sel.String()
	}
	return "σ[" + strings.Join(parts, " ∧ ") + "]"
}

// Project keeps the named data attributes — the lowering takes a leaf's and
// a join's surviving attributes from here. Uncertainty columns ride along
// according to the plan mode: every V/P pair under ModeLineage, every P
// column under ModeProb.
type Project struct {
	Input Node
	Attrs []string
}

// Inputs returns the projected input.
func (p *Project) Inputs() []Node { return []Node{p.Input} }

// Label renders the projection.
func (p *Project) Label() string { return "π[" + strings.Join(p.Attrs, ",") + "]" }

// Join is a natural equi-join on the data attributes shared by its inputs.
type Join struct {
	Left, Right Node
	// On lists the join attributes (shared data columns), for display and
	// costing; the lowering recomputes them from the physical schemas.
	On []string
}

// Inputs returns left then right.
func (j *Join) Inputs() []Node { return []Node{j.Left, j.Right} }

// Label renders the join.
func (j *Join) Label() string { return "⋈[" + strings.Join(j.On, ",") + "]" }

// Conf is a confidence-placement point: the position in the plan where
// probability computation happens. A final Conf produces the answer
// relation (distinct head tuples + confidence); a non-final Conf is an
// eager placement that aggregates some sources away and leaves a smaller
// lineage behind (§V.B).
type Conf struct {
	Input Node
	Alg   Alg
	// Ops lists the probability-computation operators applied at an eager
	// placement point ([Item*], [(Ord Item)*], …); empty for final points
	// and the lineage algorithms.
	Ops []signature.Sig
	// Sig is the signature evaluated by a final AlgSortScan point.
	Sig signature.Sig
	// Keep lists the group-by attributes of an AlgIndProject point.
	Keep []string
	// Final marks the top confidence computation producing the answer.
	Final bool
}

// Inputs returns the input relation.
func (c *Conf) Inputs() []Node { return []Node{c.Input} }

// Label renders the placement point.
func (c *Conf) Label() string {
	switch c.Alg {
	case AlgIndProject:
		return "π^ind[" + strings.Join(c.Keep, ",") + "]"
	case AlgSortScan:
		if c.Final {
			sig := "?"
			if c.Sig != nil {
				sig = c.Sig.String()
			}
			return "conf[sort+scan: " + sig + "]"
		}
		parts := make([]string, len(c.Ops))
		for i, op := range c.Ops {
			parts[i] = "[" + op.String() + "]"
		}
		return "agg" + strings.Join(parts, "")
	default:
		return "conf[" + c.Alg.String() + "]"
	}
}

// Plan is a complete logical plan: the operator tree plus the global facts
// the lowering needs (mode, style name, fallback annotation).
type Plan struct {
	// Style names the plan family ("lazy", "eager", …) for display.
	Style string
	Mode  Mode
	Root  Node
	// Note annotates unusual plans (fallback chains) for display.
	Note string
}

// String renders the plan as an indented operator tree, top operator first —
// the EXPLAIN format pinned by golden tests.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "style: %s", p.Style)
	if p.Note != "" {
		fmt.Fprintf(&b, " (%s)", p.Note)
	}
	b.WriteString("\n")
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label())
		b.WriteString("\n")
		for _, in := range n.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(p.Root, 0)
	return strings.TrimRight(b.String(), "\n")
}

// Relations returns the scanned relation occurrences in tree order (left
// before right) — the join order of left-deep plans.
func (p *Plan) Relations() []query.RelRef {
	var out []query.RelRef
	var walk func(n Node)
	walk = func(n Node) {
		if s, ok := n.(*Scan); ok {
			out = append(out, s.Ref)
		}
		for _, in := range n.Inputs() {
			walk(in)
		}
	}
	walk(p.Root)
	return out
}

// LeafKeep returns the data attributes one relation occurrence must carry
// out of its leaf pipeline: head attributes plus every attribute shared
// with another occurrence (§V.B's projection rule). The order follows the
// occurrence's attribute list.
func LeafKeep(q *query.Query, ref query.RelRef) []string {
	need := make(map[string]bool)
	for _, h := range q.Head {
		need[h] = true
	}
	for _, a := range ref.Attrs {
		for _, other := range q.Rels {
			if other.Name != ref.Name && other.HasAttr(a) {
				need[a] = true
			}
		}
	}
	var names []string
	for _, a := range ref.Attrs {
		if need[a] {
			names = append(names, a)
		}
	}
	return names
}

// JoinKeep returns the data attributes an intermediate over the joined
// occurrence set must keep: head attributes plus every attribute shared
// with a not-yet-joined relation.
func JoinKeep(q *query.Query, joined map[string]bool) map[string]bool {
	need := make(map[string]bool)
	for _, h := range q.Head {
		need[h] = true
	}
	for _, r := range q.Rels {
		if joined[r.Name] {
			continue
		}
		for _, a := range r.Attrs {
			for _, jr := range q.Rels {
				if joined[jr.Name] && jr.HasAttr(a) {
					need[a] = true
				}
			}
		}
	}
	return need
}

// joinAttrsBetween lists the attributes shared between the already-joined
// set and the incoming occurrence, in the occurrence's attribute order.
func joinAttrsBetween(q *query.Query, joined map[string]bool, ref query.RelRef) []string {
	var on []string
	for _, a := range ref.Attrs {
		for _, jr := range q.Rels {
			if jr.Name != ref.Name && joined[jr.Name] && jr.HasAttr(a) {
				on = append(on, a)
				break
			}
		}
	}
	return on
}

// Leaf builds the leaf pipeline of one occurrence: scan → σ (when the query
// selects on it) → π to keep — LeafKeep for the left-deep plans, a safe
// plan's own keep list under an independent projection.
func Leaf(q *query.Query, ref query.RelRef, keep []string) Node {
	var n Node = &Scan{Ref: ref}
	var sels []query.Selection
	for _, s := range q.Sels {
		if s.Rel == ref.Name {
			sels = append(sels, s)
		}
	}
	if len(sels) > 0 {
		n = &Select{Input: n, Sels: sels}
	}
	return &Project{Input: n, Attrs: keep}
}

// JoinStep extends a left-deep plan by one occurrence: join the
// accumulated plan with the occurrence's leaf and project to the attributes
// still needed. joined must already include the new occurrence.
func JoinStep(q *query.Query, left Node, ref query.RelRef, joined map[string]bool) Node {
	j := &Join{Left: left, Right: Leaf(q, ref, LeafKeep(q, ref)), On: joinAttrsBetween(q, joined, ref)}
	need := JoinKeep(q, joined)
	var attrs []string
	seen := make(map[string]bool)
	for _, r := range q.Rels {
		if !joined[r.Name] {
			continue
		}
		for _, a := range r.Attrs {
			if need[a] && !seen[a] {
				attrs = append(attrs, a)
				seen[a] = true
			}
		}
	}
	slices.Sort(attrs)
	return &Project{Input: j, Attrs: attrs}
}

// AnswerTree builds the left-deep scan/select/project/join tree that
// materializes the answer tuples of q in the given join order — the shared
// skeleton of the lazy, OBDD and Monte Carlo plans, and of the hybrid
// plan's lazy suffix.
func AnswerTree(q *query.Query, order []query.RelRef) Node {
	joined := make(map[string]bool)
	var n Node
	for i, ref := range order {
		joined[ref.Name] = true
		if i == 0 {
			n = Leaf(q, ref, LeafKeep(q, ref))
			continue
		}
		n = JoinStep(q, n, ref, joined)
	}
	return n
}
