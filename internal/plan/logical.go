package plan

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/logical"
	"repro/internal/query"
	"repro/internal/signature"
)

// built is a fully constructed logical plan plus the facts the lowering and
// the cost model need beyond the operator tree itself.
type built struct {
	lp *logical.Plan
	// order is the join order: of the left-deep plans, and the scan order
	// of MystiQ's tree-shaped plans (deepest subtrees first).
	order []query.RelRef
	// sig is the resolved hierarchical signature: the full signature for
	// sort+scan styles, the variable-order seed for OBDD plans (nil when
	// none exists).
	sig signature.Sig
	// eagerStages counts the leading stages carrying eager placement
	// points (len(order) for eager, the prefix for hybrid, 0 for lazy).
	eagerStages int
	// tree is the safe plan's query tree (MystiQ only), for display.
	tree *query.Tree
}

// buildLogical constructs the logical plan IR for one (query, style) pair.
// It resolves the signature, decides the fallback chain for exact styles on
// queries without one (honoring spec.RequireExact), computes the static
// eager operator schedule, and returns the IR every style lowers from.
func buildLogical(c *Catalog, q *query.Query, sigma *fd.Set, spec Spec) (*built, error) {
	switch spec.Style {
	case MonteCarlo:
		return buildLineage(c, q, logical.AlgMC, "mc", ""), nil
	case OBDD:
		b := buildLineage(c, q, logical.AlgOBDD, "obdd", "")
		if s, err := signature.Best(q, sigma); err == nil {
			b.sig = s
			// Record the variable-order seed on the placement point: the
			// cost model prices signature-ordered compilation (linear on
			// hierarchical lineage) cheaper than unordered compilation.
			b.lp.Root.(*logical.Conf).Sig = s
		}
		return b, nil
	case DTree:
		// Decomposition is order-free, so unlike the OBDD style there is
		// no signature to resolve or record.
		return buildLineage(c, q, logical.AlgDTree, "dtree", ""), nil
	case Lazy, Eager, Hybrid, SafeMystiQ:
		// Exact styles; resolved below.
	default:
		return nil, fmt.Errorf("plan: unknown style %d", spec.Style)
	}

	sig, err := signature.Best(q, sigma)
	if err != nil {
		if spec.RequireExact {
			return nil, fmt.Errorf("plan: %s is not tractable (no hierarchical signature): %w", q.Name, err)
		}
		// Fallback chain: OBDD compilation (still exact under the node
		// budget), then d-tree decomposition, then Monte Carlo.
		b := buildLineage(c, q, logical.AlgLadder, spec.Style.String(),
			fmt.Sprintf("fallback from %s: no hierarchical signature", spec.Style))
		return b, nil
	}

	switch spec.Style {
	case Lazy:
		order := LazyOrder(c, q)
		root := &logical.Conf{Input: logical.AnswerTree(q, order), Alg: logical.AlgSortScan, Sig: sig, Final: true}
		return &built{
			lp:    &logical.Plan{Style: "lazy", Mode: logical.ModeLineage, Root: root},
			order: order,
			sig:   sig,
		}, nil
	case Eager, Hybrid:
		return buildStaged(c, q, sigma, sig, spec)
	default: // SafeMystiQ
		return buildSafe(q, sigma)
	}
}

// buildLineage constructs the shared lazy-answer + lineage-algorithm shape
// of the Monte Carlo, OBDD, d-tree and fallback-chain plans.
func buildLineage(c *Catalog, q *query.Query, alg logical.Alg, style, note string) *built {
	order := LazyOrder(c, q)
	root := &logical.Conf{Input: logical.AnswerTree(q, order), Alg: alg, Final: true}
	return &built{
		lp:    &logical.Plan{Style: style, Mode: logical.ModeLineage, Root: root, Note: note},
		order: order,
	}
}

// buildStaged constructs the eager and hybrid plans: a left-deep join tree
// with eager confidence-placement points after each of the first
// eagerStages intermediates. The operators applied at each point — and the
// signature remaining for the top, the final placement's Sig — are computed
// statically with Restrict and signature.Collapse, whose representative
// (signature.Rep) is the one conf.AggregateFrom leaves at run time; the
// lowering runs this schedule as it stands.
func buildStaged(c *Catalog, q *query.Query, sigma *fd.Set, sig signature.Sig, spec Spec) (*built, error) {
	style := "eager"
	var order []query.RelRef
	eagerStages := len(q.Rels)
	if spec.Style == Eager {
		tree, err := treeForOrder(q, sigma)
		if err != nil {
			return nil, err
		}
		order = HierarchicalOrder(q, tree)
	} else {
		order = LazyOrder(c, q)
		prefix := spec.HybridPrefix
		if prefix <= 0 || prefix > len(q.Rels) {
			prefix = len(q.Rels) - 1
		}
		eagerStages = prefix
		style = fmt.Sprintf("hybrid(prefix=%d)", prefix)
	}

	full, cur := sig, sig
	joined := make(map[string]bool)
	var node logical.Node
	for i, ref := range order {
		joined[ref.Name] = true
		if i == 0 {
			node = logical.Leaf(q, ref, logical.LeafKeep(q, ref))
		} else {
			node = logical.JoinStep(q, node, ref, joined)
		}
		if i >= eagerStages {
			continue
		}
		ops := Restrict(full, cur, joined)
		var applied []signature.Sig
		for _, op := range ops {
			if _, bare := op.(signature.Table); bare {
				continue
			}
			cur = signature.Collapse(cur, op)
			applied = append(applied, op)
		}
		if len(applied) > 0 {
			node = &logical.Conf{Input: node, Alg: logical.AlgSortScan, Ops: applied}
		}
	}
	root := &logical.Conf{Input: node, Alg: logical.AlgSortScan, Sig: cur, Final: true}
	return &built{
		lp:          &logical.Plan{Style: style, Mode: logical.ModeLineage, Root: root},
		order:       order,
		sig:         sig,
		eagerStages: eagerStages,
	}, nil
}

// buildSafe constructs the MystiQ safe plan (Fig. 2) as a tree-shaped IR in
// probability mode: every leaf and join is capped by an independent
// projection π^ind, and no variable columns exist.
func buildSafe(q *query.Query, sigma *fd.Set) (*built, error) {
	// Prefer the head-aware tree of the original query: its labels carry
	// the actual join attributes. The FD-reduct tree (used when the
	// original structure is non-hierarchical, e.g. Q18) drops attributes
	// functionally determined by the head, which is fine there because the
	// reduct keeps the join attributes that still matter.
	tree, err := query.TreeFor(q)
	if err != nil {
		tree, err = treeForOrder(q, sigma)
		if err != nil {
			return nil, fmt.Errorf("plan: no safe plan for %s: %w", q.Name, err)
		}
	}
	head := make(map[string]bool, len(q.Head))
	for _, h := range q.Head {
		head[h] = true
	}

	var build func(t *query.Tree, parentLabel []string) (logical.Node, error)
	build = func(t *query.Tree, parentLabel []string) (logical.Node, error) {
		if t.IsLeaf() {
			// The tree may come from an FD-reduct, whose leaves carry
			// closure-extended attribute sets; use the original occurrence.
			ref, ok := q.RelByName(t.Leaf.Name)
			if !ok {
				return nil, fmt.Errorf("plan: tree leaf %s not in query", t.Leaf.Name)
			}
			keep := safeLeafKeep(q, ref, parentLabel, head)
			return &logical.Conf{Input: logical.Leaf(q, ref, keep), Alg: logical.AlgIndProject, Keep: keep}, nil
		}
		// Children in hierarchy order, like the safe plans MystiQ produces
		// (Fig. 2 joins Ord ⋈ Item before Cust).
		kids := deepestFirst(t.Children)
		cur, err := build(kids[0], t.Label)
		if err != nil {
			return nil, err
		}
		for i, kid := range kids[1:] {
			right, err := build(kid, t.Label)
			if err != nil {
				return nil, err
			}
			// Between the node's joins its own label is still needed; the
			// π^ind after the last one hands the subtree to the parent's
			// join, so — like a leaf — it keeps the parent's label: a wider
			// own label ({okey} under ⋈[ckey]) would reach that join
			// ungrouped and count the sibling's probability once per order.
			label := t.Label
			if i == len(kids)-2 {
				label = parentLabel
			}
			keep := safeKeepAttrs(q, t, label)
			j := &logical.Join{Left: cur, Right: right, On: sharedKeep(cur, right)}
			p := &logical.Project{Input: j, Attrs: keep}
			cur = &logical.Conf{Input: p, Alg: logical.AlgIndProject, Keep: keep}
		}
		return cur, nil
	}

	inner, err := build(tree, nil)
	if err != nil {
		return nil, err
	}
	// Final independent projection onto the head attributes.
	root := &logical.Conf{Input: inner, Alg: logical.AlgIndProject, Keep: q.Head, Final: true}
	lp := &logical.Plan{Style: "mystiq", Mode: logical.ModeProb, Root: root}
	return &built{lp: lp, order: lp.Relations(), tree: tree}, nil
}

// sharedKeep lists the attributes two safe subplans join on: the
// intersection of their top π^ind keep lists, in the left list's order.
func sharedKeep(left, right logical.Node) []string {
	keepOf := func(n logical.Node) []string {
		if c, ok := n.(*logical.Conf); ok {
			return c.Keep
		}
		return nil
	}
	rset := make(map[string]bool)
	for _, a := range keepOf(right) {
		rset[a] = true
	}
	var on []string
	for _, a := range keepOf(left) {
		if rset[a] {
			on = append(on, a)
		}
	}
	return on
}

// safeLeafKeep returns the attributes a safe-plan leaf keeps: parent label
// attributes present in the leaf, then head attributes, both deduplicated.
func safeLeafKeep(q *query.Query, ref query.RelRef, parentLabel []string, head map[string]bool) []string {
	seen := make(map[string]bool)
	var keep []string
	for _, a := range parentLabel {
		if ref.HasAttr(a) && !seen[a] {
			keep = append(keep, a)
			seen[a] = true
		}
	}
	for _, a := range ref.Attrs {
		if head[a] && !seen[a] {
			keep = append(keep, a)
			seen[a] = true
		}
	}
	return keep
}

// safeKeepAttrs returns what a π^ind inside an inner safe-plan node keeps:
// the label attributes, then the head attributes, both restricted to the
// attributes available in the node's subtree.
func safeKeepAttrs(q *query.Query, t *query.Tree, label []string) []string {
	inSubtree := make(map[string]bool)
	var walk func(n *query.Tree)
	walk = func(n *query.Tree) {
		if n.IsLeaf() {
			if ref, ok := q.RelByName(n.Leaf.Name); ok {
				for _, a := range ref.Attrs {
					inSubtree[a] = true
				}
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	var keep []string
	seen := make(map[string]bool)
	for _, a := range append(append([]string(nil), label...), q.Head...) {
		if inSubtree[a] && !seen[a] {
			keep = append(keep, a)
			seen[a] = true
		}
	}
	return keep
}
