package plan

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/table"
)

// exec carries the cross-cutting execution state of one plan run: the
// cancellation context, the shared worker pool, and the execution trace
// being collected (nil when tracing is off). A serial exec (one-worker
// pool, background context) reproduces the classic single-threaded executor
// exactly.
type exec struct {
	ctx  context.Context
	pool *pool.Pool
	tr   *obs.Trace
	// mem is the run's memory governor (nil = ungoverned); sortBudget and
	// tmpDir configure the grace-mode sorts of governed hash joins.
	mem        *fault.Governor
	sortBudget int
	tmpDir     string
	// stop is the run's deadline-watermark probe (nil = none) and maxNodes
	// the governor's headroom in compilation nodes (0 = uncapped); exec.arm
	// installs both on a lineage tier's options.
	stop     func() bool
	maxNodes int
}

// span opens a top-level trace span, or returns nil (a no-op span) when
// tracing is off.
func (ex exec) span(name string) *obs.Span {
	if ex.tr == nil {
		return nil
	}
	return ex.tr.Root.Child(name)
}

// serialExec is the one-worker, uncancellable executor of Answer and the
// tests.
func serialExec() exec {
	return exec{ctx: context.Background(), pool: pool.New(1)}
}

// colStats returns the base-column statistics behind one occurrence
// attribute, or nil when the catalog has not been analyzed (the estimators
// then fall back to stats' default selectivity constants, the planner's
// historic 0.02/0.30). Occurrence attributes positionally rename the base
// table's data columns, so the lookup goes through the position.
func colStats(c *Catalog, ref query.RelRef, attr string) *stats.ColumnStats {
	ts := c.TableStats(ref.Base)
	if ts == nil {
		return nil
	}
	base, ok := c.tables[ref.Base]
	if !ok {
		return nil
	}
	dataIdx := base.Rel.Schema.DataIndexes()
	for i, a := range ref.Attrs {
		if a == attr && i < len(dataIdx) {
			return ts.Cols[base.Rel.Schema.Cols[dataIdx[i]].Name]
		}
	}
	return nil
}

// selSelectivity estimates the fraction of ref's rows satisfying one
// selection, histogram-based when the catalog is analyzed.
func selSelectivity(c *Catalog, ref query.RelRef, s query.Selection) float64 {
	cs := colStats(c, ref, s.Attr)
	if s.Op == engine.OpEq {
		return cs.EqSelectivity(s.Val)
	}
	return cs.RangeSelectivity(s.Op.String(), s.Val)
}

// estimate predicts the post-selection cardinality of a relation occurrence.
func estimate(c *Catalog, q *query.Query, ref query.RelRef) float64 {
	est := float64(c.Rows(ref.Base))
	for _, s := range q.Sels {
		if s.Rel != ref.Name {
			continue
		}
		est *= selSelectivity(c, ref, s)
	}
	if est < 1 {
		est = 1
	}
	return est
}

// LazyOrder picks a greedy join order: start from the smallest estimated
// relation and repeatedly join the smallest relation connected to the
// current set (falling back to the smallest remaining one for disconnected
// queries). This is the "better join order" of the paper's lazy plan
// (Fig. 7c): the selective Cust is joined before the large Item.
func LazyOrder(c *Catalog, q *query.Query) []query.RelRef {
	remaining := append([]query.RelRef(nil), q.Rels...)
	var out []query.RelRef
	attrs := make(map[string]bool)
	for len(remaining) > 0 {
		best := -1
		bestConnected := false
		var bestEst float64
		for i, r := range remaining {
			connected := len(out) == 0
			for _, a := range r.Attrs {
				if attrs[a] {
					connected = true
					break
				}
			}
			est := estimate(c, q, r)
			if best == -1 || (connected && !bestConnected) ||
				(connected == bestConnected && est < bestEst) {
				best, bestConnected, bestEst = i, connected, est
			}
		}
		r := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		out = append(out, r)
		for _, a := range r.Attrs {
			attrs[a] = true
		}
	}
	return out
}

// HierarchicalOrder derives the join order imposed by the query tree
// (deepest subtrees first), the order safe plans and the paper's eager
// plans use — e.g. Ord ⋈ Item before Cust for the Introduction's query
// (Fig. 2, Fig. 7a).
func HierarchicalOrder(q *query.Query, t *query.Tree) []query.RelRef {
	var names []string
	var walk func(n *query.Tree)
	walk = func(n *query.Tree) {
		if n.IsLeaf() {
			names = append(names, n.Leaf.Name)
			return
		}
		for _, kid := range deepestFirst(n.Children) {
			walk(kid)
		}
	}
	walk(t)
	out := make([]query.RelRef, 0, len(names))
	for _, n := range names {
		r, ok := q.RelByName(n)
		if !ok {
			continue
		}
		out = append(out, r)
	}
	return out
}

// deepestFirst returns a copy of a tree node's children ordered deepest
// subtree first — the child order of HierarchicalOrder and of MystiQ's safe
// plans. Ties keep the order a selection sort leaves them in, which the
// explain and trace goldens pin.
func deepestFirst(children []*query.Tree) []*query.Tree {
	kids := slices.Clone(children)
	for i := range kids {
		deepest := i
		for j := i + 1; j < len(kids); j++ {
			if depth(kids[j]) > depth(kids[deepest]) {
				deepest = j
			}
		}
		kids[i], kids[deepest] = kids[deepest], kids[i]
	}
	return kids
}

func depth(t *query.Tree) int {
	if t.IsLeaf() {
		return 1
	}
	d := 0
	for _, c := range t.Children {
		if cd := depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// leafPipeline builds the operator reading one relation occurrence: a scan
// of the base table — its column chunks, or the heap file through the
// buffer pool for disk-resident tables (Catalog.BindDisk) — under the
// occurrence's rename → project pipeline. The occurrence's selections,
// mapped through the rename onto the base table's columns, go to the scan,
// which evaluates them before it copies or decodes anything else. The
// projection keeps the attributes the plan's leaf projection names plus
// the occurrence's uncertainty columns — V and P under ModeLineage, P alone
// under ModeProb.
func leafPipeline(c *Catalog, q *query.Query, ref query.RelRef, attrs []string, mode logical.Mode) (engine.ColOperator, error) {
	base, err := c.Base(ref)
	if err != nil {
		return nil, err
	}
	idx, renamed, err := renaming(ref, base.Rel.Schema)
	if err != nil {
		return nil, err
	}
	var preds []engine.ColPred
	for _, sel := range q.Sels {
		if sel.Rel != ref.Name {
			continue
		}
		j := renamed.ColIndex(sel.Attr)
		if j < 0 {
			return nil, fmt.Errorf("plan: selection attribute %s missing from %s", sel.Attr, ref.Name)
		}
		preds = append(preds, engine.ColPred{Col: idx[j], Op: sel.Op, Val: sel.Val})
	}
	var op engine.ColOperator = &engine.ColChunkScan{S: base.Rel.Schema, Chunks: base.Rel.Chunks, Preds: preds}
	if db := c.Disk(ref.Base); db != nil {
		hs := engine.NewColHeapScan(db.File, db.Pool, base.Rel.Schema)
		hs.Preds = preds
		op = hs
	}
	if op, err = engine.NewColProject(op, idx, renamed); err != nil {
		return nil, err
	}
	names := slices.Clone(attrs)
	if mode == logical.ModeLineage {
		names = append(names, "V("+ref.Name+")")
	}
	return engine.NewColumnProject(op, append(names, "P("+ref.Name+")"))
}

// joinPipeline equi-joins two operators on their shared data attributes and
// projects the result to the data attributes the plan's post-join
// projection names plus every uncertainty column, naming the physical join
// on sp. Every run, at every worker count, takes the one streaming hash
// join; under a governor its build side is charged and may degrade to a
// grace join, and the join is returned as well so the caller can report
// whether it did.
func joinPipeline(ex exec, left, right engine.ColOperator, attrs []string, sp *obs.Span) (engine.ColOperator, *engine.ColHashJoin, error) {
	ls, rs := left.Schema(), right.Schema()
	var lk, rk []int
	for i, lc := range ls.Cols {
		if lc.Role != table.RoleData {
			continue
		}
		j := rs.ColIndex(lc.Name)
		if j >= 0 && rs.Cols[j].Role == table.RoleData {
			lk = append(lk, i)
			rk = append(rk, j)
		}
	}
	j, err := engine.NewColHashJoin(left, right, lk, rk)
	if err != nil {
		return nil, nil, err
	}
	var governed *engine.ColHashJoin
	if ex.mem != nil {
		sp.LooseStr("phys", "hash(build=right, governed)")
		j.Mem, j.SortBudget, j.TmpDir = ex.mem, ex.sortBudget, ex.tmpDir
		governed = j
	} else {
		sp.LooseStr("phys", "hash(build=right)")
	}
	// Project: kept data attrs in join-schema order (first occurrence wins,
	// removing the duplicated join columns) + every V/P column.
	var names []string
	for _, c := range j.Schema().Cols {
		if c.Role != table.RoleData || (slices.Contains(attrs, c.Name) && !slices.Contains(names, c.Name)) {
			names = append(names, c.Name)
		}
	}
	op, err := engine.NewColumnProject(j, names)
	return op, governed, err
}

// describeOrder renders a join order for plan explanations.
func describeOrder(refs []query.RelRef) string {
	names := make([]string, len(refs))
	for i, r := range refs {
		names[i] = r.Name
	}
	return strings.Join(names, " ⋈ ")
}
