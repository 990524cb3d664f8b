// Package conf implements SPROUT's contribution: the secondary-storage
// operator for exact confidence computation (paper §V), and the lineage
// tiers behind it. The cooperating pieces:
//
//   - the streaming one-scan algorithm over a 1scanTree (Fig. 8), which
//     turns the DNF encoded in the variable columns of a sorted answer
//     relation into 1OF and evaluates its probability on the fly;
//   - the multi-scan plan of §V.C (Ex. V.11) as sort+scan passes: one per
//     aggregation step of signature.Schedule, then one over the final 1scan
//     signature, each evaluating the signature.ScanTree it binds to the
//     input's V/P columns;
//   - the operator's input as a stream (source.go): a Source feeds its rows,
//     batch by batch, straight into the first pass's run generation — one
//     key sorter, or one per worker routed by group-key hash — so a streamed
//     answer is never materialized; each pass reads its sorted column
//     batches and writes column chunks, which the next pass consumes as a
//     Source again; the *table.Relation entry points transpose the relation
//     into such chunks;
//   - MystiQ's independent projection π^ind (indproject.go), the baseline's
//     confidence placement: the same sort+scan pass — same streaming, same
//     spilling, partitioning and governor — with a different per-group
//     accumulator;
//   - the literal GRP-sequence semantics of Fig. 5/6 (grp_test.go), the
//     tests' reference implementation;
//   - the lineage tiers (tier.go) for queries without a hierarchical
//     signature: the answer streams from a Source into per-answer lineage
//     DNFs once (CollectLineageFrom: column batches hash-grouped
//     straight into a shared clause arena, the answer itself never held;
//     sorted Keys and canonically sorted clauses make the result
//     independent of the join's row order) and a tier turns them into
//     confidences —
//     OBDD compilation (obdd.go) and d-tree decomposition (dtree.go), the
//     two settings of one compile kernel (internal/dtree), exact within a
//     budget and certified deterministic [lo, hi] bounds beyond
//     it, both on one per-answer driver (compileLineage: pool fan-out,
//     pooled builder state, the degradation rule, one TierStats shape); and
//     Monte Carlo (mc.go), which estimates each confidence with the (ε, δ)
//     samplers of internal/prob and shares the stats head and the output
//     assembly.
//
// Together they form the engine's fallback ladder for queries whose exact
// confidence computation is #P-hard: sort+scan (needs a hierarchical
// signature) → OBDD-exact under budget → d-tree-exact under budget → Monte
// Carlo.
package conf

import (
	"fmt"

	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// scanNode is one node of the runtime 1scanTree: it tracks the running
// probability of the current partition (crtP), the accumulated probability
// of finished partitions (allP), and the enabled flag that suppresses
// re-occurring partitions (Fig. 8). A virtual node is the root of a
// relational product (signature.ScanTree): its "partition" spans the whole
// bag and its probability is the product of its children's accumulated
// results.
type scanNode struct {
	virtual  bool
	pos      int // position in the sort order; -1 for the virtual root
	varIdx   int // column index of V(table); -1 for the virtual root
	probIdx  int // column index of P(table); -1 for the virtual root
	children []*scanNode
	crtP     float64
	allP     float64
	enabled  bool
}

// runtimeTree is the evaluator for one bag of duplicates. It reads a sorted
// batch's typed columns: V cells from Ints, P cells from Floats (V/P cells
// are never NULL: every base tuple carries its variable and probability).
type runtimeTree struct {
	root  *scanNode
	nodes []*scanNode // real (non-virtual) nodes in preorder
	prevV []int64     // the previous row's variable of each real node, by pos
}

// newRuntimeTree binds each table of a 1scanTree to its V/P columns in
// schema. The real nodes are numbered in preorder, the required sort order
// of the variable columns.
func newRuntimeTree(tree *signature.ScanTree, schema *table.Schema) (*runtimeTree, error) {
	rt := &runtimeTree{}
	var bind func(t *signature.ScanTree) (*scanNode, error)
	bind = func(t *signature.ScanTree) (*scanNode, error) {
		n := &scanNode{virtual: t.Table == "", pos: -1, varIdx: -1, probIdx: -1}
		if !n.virtual {
			n.varIdx, n.probIdx = schema.VarIndex(t.Table), schema.ProbIndex(t.Table)
			if n.varIdx < 0 || n.probIdx < 0 {
				return nil, fmt.Errorf("conf: input schema %v lacks V/P columns for table %s", schema.Names(), t.Table)
			}
			n.pos = len(rt.nodes)
			rt.nodes = append(rt.nodes, n)
		}
		for _, c := range t.Children {
			child, err := bind(c)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
		}
		return n, nil
	}
	root, err := bind(tree)
	if err != nil {
		return nil, err
	}
	if len(rt.nodes) == 0 {
		return nil, fmt.Errorf("conf: scan tree %s has no tables", tree)
	}
	rt.root = root
	rt.prevV = make([]int64, len(rt.nodes))
	return rt, nil
}

// treeAccumulators binds a 1scanTree to schema for one sort+scan pass: the
// variable columns in preorder — the order the evaluator needs within a
// group — and a factory of evaluators, one per concurrent scan.
func treeAccumulators(tree *signature.ScanTree, schema *table.Schema) ([]int, func() accumulator, error) {
	rt, err := newRuntimeTree(tree, schema)
	if err != nil {
		return nil, nil, err
	}
	varCols := make([]int, len(rt.nodes))
	for i, n := range rt.nodes {
		varCols[i] = n.varIdx
	}
	return varCols, func() accumulator {
		t, _ := newRuntimeTree(tree, schema) // cannot fail: rt was bound from the same inputs
		return t
	}, nil
}

// seed starts a new bag of duplicates with its first row: every node is
// enabled with an empty history (allP = 0) and a current partition opened
// with the row's probability. This is exactly the state Fig. 8's
// propagate_prob reaches after processing the first tuple with i = 0, and
// it also covers virtual product roots, which have no column of their own.
func (rt *runtimeTree) seed(b *table.ColBatch, row int) {
	var walk func(n *scanNode)
	walk = func(n *scanNode) {
		n.enabled = true
		n.allP = 0
		if n.virtual {
			n.crtP = 1
		} else {
			n.crtP = b.Cols[n.probIdx].Floats[row]
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(rt.root)
	for _, n := range rt.nodes {
		rt.prevV[n.pos] = b.Cols[n.varIdx].Ints[row]
	}
}

// firstUnmatched returns the position of the leftmost variable column on
// which the previous row and this one differ, or len(nodes) when all
// variable columns agree, and records this row's variables from there on.
func (rt *runtimeTree) firstUnmatched(b *table.ColBatch, row int) int {
	first := len(rt.nodes)
	for _, n := range rt.nodes {
		if v := b.Cols[n.varIdx].Ints[row]; v != rt.prevV[n.pos] {
			first = min(first, n.pos)
			rt.prevV[n.pos] = v
		}
	}
	return first
}

// step processes one further row of the bag — procedure propagate_prob of
// Fig. 8 at the leftmost column changed since the previous row, run in
// postorder from the root.
func (rt *runtimeTree) step(b *table.ColBatch, row int) {
	rt.propagate(rt.root, rt.firstUnmatched(b, row), b, row)
}

// propagate runs propagate_prob at node n for the row's leftmost changed
// position i; b is nil when the bag is being closed.
func (rt *runtimeTree) propagate(n *scanNode, i int, b *table.ColBatch, row int) {
	for _, c := range n.children {
		rt.propagate(c, i, b, row)
	}
	if !n.enabled || n.pos < i {
		return
	}
	if !n.virtual && len(n.children) == 0 && n.pos == i && b != nil {
		// Same partition, new variable: accumulate the independent OR.
		n.crtP = prob.Or(n.crtP, b.Cols[n.probIdx].Floats[row])
		return
	}
	// A partition of n (or an ancestor) just ended: close n's current
	// partition by folding in the children's finished partitions, and add
	// it to allP.
	for _, c := range n.children {
		n.crtP *= c.allP
	}
	n.allP = prob.Or(n.allP, n.crtP)
	if !n.virtual && b != nil && n.pos == i {
		// n starts a new partition: descendants start fresh partitions
		// seeded with the current row's probabilities.
		rt.resetDescendants(n, b, row)
		n.crtP = b.Cols[n.probIdx].Floats[row]
	} else {
		// An ancestor's partition changed (or this partition re-occurred):
		// freeze n until an ancestor re-enables it.
		rt.disable(n)
	}
}

func (rt *runtimeTree) resetDescendants(n *scanNode, b *table.ColBatch, row int) {
	for _, c := range n.children {
		c.enabled = true
		c.allP = 0
		c.crtP = b.Cols[c.probIdx].Floats[row]
		rt.resetDescendants(c, b, row)
	}
}

func (rt *runtimeTree) disable(n *scanNode) {
	n.enabled = false
	for _, c := range n.children {
		rt.disable(c)
	}
}

// flush finalizes the current bag and returns its exact probability.
func (rt *runtimeTree) flush() float64 {
	rt.propagate(rt.root, -1, nil, 0)
	return rt.root.allP
}
