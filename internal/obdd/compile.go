package obdd

import (
	"fmt"
	"slices"

	"repro/internal/clauseset"
	"repro/internal/prob"
)

// Options, Result and DefaultNodeBudget are the lineage compilers' shared
// contract (internal/clauseset); NodeBudget counts diagram nodes here.
type (
	Options = clauseset.Options
	Result  = clauseset.Result
)

// DefaultNodeBudget caps the diagram size (and the anytime mode's expansion
// steps) when Options.NodeBudget is zero.
const DefaultNodeBudget = clauseset.DefaultNodeBudget

// Prob computes Pr[d] under the given variable order: exact via OBDD
// compilation and one bottom-up evaluation pass when the diagram fits the
// node budget, certified [lo, hi] bounds via partial expansion otherwise.
// The order must mention every variable of d. The result is a deterministic
// function of (d, a, order, o).
func Prob(d *prob.DNF, a *prob.Assignment, order []prob.Var, o Options) (Result, error) {
	return ProbWith(NewBuilder(order, o.Budget()), d, a, o)
}

// ProbWith is Prob over a caller-supplied builder, which must already hold
// the variable order and node budget (NewBuilder or Reset). It exists so a
// batch of per-answer compilations can reuse one builder's unique, apply and
// memo tables across answers (Reset between them) instead of reallocating
// every map per formula; the result is identical to Prob's.
func ProbWith(b *Builder, d *prob.DNF, a *prob.Assignment, o Options) (Result, error) {
	hits0, misses0, rec0 := b.memo.Counters()
	b.stop = o.Stop
	root, err := b.Compile(d)
	b.stop = nil
	hits, misses, rec := b.memo.Counters()
	hits, misses, rec = hits-hits0, misses-misses0, rec-rec0
	if err == nil {
		p := b.Prob(root, a)
		return Result{Exact: true, P: p, Lo: p, Hi: p, Nodes: b.Size(),
			MemoHits: hits, MemoMisses: misses, HdrRecycled: rec}, nil
	}
	if err != ErrBudget {
		return Result{}, err
	}
	res, err := Bounds(d, a, b.order, o)
	if err != nil {
		return Result{}, err
	}
	res.Nodes += b.Size() // the abandoned compile's work is effort, too
	res.MemoHits, res.MemoMisses, res.HdrRecycled = hits, misses, rec
	return res, nil
}

// Compile builds the reduced OBDD of a DNF by Shannon expansion under the
// builder's order: condition the clause set on its topmost variable, recurse
// on both cofactors, and hash-cons the resulting node. Residual clause sets
// are interned in the builder's clauseset.Store, so shared subformulas
// compile once; cofactor clause-set headers are drawn from the store's free
// list and recycled on every memo hit. Returns ErrBudget when the diagram
// would exceed the node budget.
func (b *Builder) Compile(d *prob.DNF) (Ref, error) {
	cls, err := b.lower(d)
	if err != nil {
		return False, err
	}
	// lower emits clauses in the DNF's variable order, not in level order:
	// canonicalize the root once, every cofactor below stays canonical.
	return b.shannon(clauseset.Normalize(cls))
}

// lower rewrites clauses as ascending level lists, dropping invalid vars.
// The literal storage of all clauses shares one backing array.
func (b *Builder) lower(d *prob.DNF) ([][]int32, error) {
	total := 0
	for _, c := range d.Clauses {
		total += len(c)
	}
	flat := make([]int32, 0, total)
	cls := make([][]int32, 0, len(d.Clauses))
	for _, c := range d.Clauses {
		start := len(flat)
		for _, v := range c {
			if !v.Valid() {
				continue
			}
			lv, ok := b.level[v]
			if !ok {
				return nil, fmt.Errorf("obdd: variable %v of %s not in order", v, c)
			}
			flat = append(flat, lv)
		}
		lc := flat[start:len(flat):len(flat)]
		slices.Sort(lc)
		cls = append(cls, lc)
	}
	return cls, nil
}

// shannon compiles a canonical clause set, taking ownership of the cls
// header: on a memo hit (or a terminal case) the header is recycled into the
// store's free list, on a miss it is retained by the memo entry.
func (b *Builder) shannon(cls [][]int32) (Ref, error) {
	if b.stop != nil && b.stop() {
		b.memo.Recycle(cls)
		return False, ErrBudget
	}
	// Canonical order puts an empty clause first, and the topmost level
	// heads the first clause.
	if len(cls) == 0 {
		b.memo.Recycle(cls)
		return False, nil
	}
	if len(cls[0]) == 0 {
		b.memo.Recycle(cls)
		return True, nil
	}
	h := clauseset.Hash(cls)
	if r, ok := b.memo.Get(h, cls); ok {
		b.memo.Recycle(cls)
		return r, nil
	}
	top := cls[0][0]
	pos, neg, posTrue := b.condition(cls)
	var hi Ref = True
	var err error
	if !posTrue {
		hi, err = b.shannon(pos)
		if err != nil {
			return False, err
		}
	}
	lo, err := b.shannon(neg)
	if err != nil {
		return False, err
	}
	r, err := b.mk(top, lo, hi)
	if err != nil {
		return False, err
	}
	b.memo.Put(h, cls, r)
	return r, nil
}

// condition splits a canonical, non-empty clause set without an empty clause
// on its topmost level, cls[0][0]: pos is the cofactor under "true" (the
// level stripped from the clauses that start with it), neg the cofactor
// under "false" (those clauses dropped). posTrue short-circuits the positive
// cofactor when stripping the level empties a clause. Both cofactors come
// out canonical in linear time, with headers from the store's free list: the
// clauses starting with the level are a prefix cls[:k] (lexicographic
// order), so neg is the suffix cls[k:] as it stands, the only clause that
// can empty is cls[0] (the shortest of the prefix), and pos merges the
// prefix's tails — sorted, as the prefix is — into the suffix, dropping
// tails the suffix already holds.
func (b *Builder) condition(cls [][]int32) (pos, neg [][]int32, posTrue bool) {
	top, k := cls[0][0], 1
	for k < len(cls) && cls[k][0] == top {
		k++
	}
	rest := cls[k:]
	neg = append(b.memo.Scratch(len(rest)), rest...)
	if len(cls[0]) == 1 {
		return nil, neg, true
	}
	pos = b.memo.Scratch(len(cls))
	for _, c := range cls[:k] {
		c = c[1:]
		for len(rest) > 0 {
			d := clauseset.Compare(rest[0], c)
			if d > 0 {
				break
			}
			if d < 0 {
				pos = append(pos, rest[0])
			}
			rest = rest[1:]
		}
		pos = append(pos, c)
	}
	return append(pos, rest...), neg, false
}

// OccurrenceOrder derives a variable order from the lineage itself:
// variables are ranked by first occurrence scanning the clauses left to
// right — interleaving the per-source variable columns clause by clause
// (c₁o₁i₁ c₂o₂i₂ …) rather than grouping all of one table's variables
// together, which keeps co-occurring variables adjacent and compiles
// read-once lineage into linear-size diagrams.
//
// rank, when non-nil, orders variables within each clause (ascending rank,
// ties by Var id) before the scan — this is how a query-signature order
// threads through: rank variables by their source table's position in the
// signature so each clause is visited root-table first, mirroring the
// hierarchy the signature encodes. A nil rank visits each clause in its
// stored (Var id) order.
func OccurrenceOrder(d *prob.DNF, rank func(prob.Var) int) []prob.Var {
	var s OrderScratch
	return s.OccurrenceOrder(d, rank)
}

// OrderScratch holds the reusable working state of OccurrenceOrder, so a
// batch of per-answer order derivations (conf's OBDD fan-out) pays the map
// and slice allocations once per worker instead of once per answer.
type OrderScratch struct {
	seen  map[prob.Var]bool
	order []prob.Var
	buf   []prob.Var
}

// OccurrenceOrder is the package-level OccurrenceOrder over reused scratch
// storage. The returned order aliases the scratch and is only valid until
// the next call on the same scratch.
func (s *OrderScratch) OccurrenceOrder(d *prob.DNF, rank func(prob.Var) int) []prob.Var {
	if s.seen == nil {
		s.seen = make(map[prob.Var]bool)
	}
	clear(s.seen)
	seen := s.seen
	order := s.order[:0]
	buf := s.buf[:0]
	defer func() { s.order, s.buf = order[:0], buf[:0] }()
	for _, c := range d.Clauses {
		buf = buf[:0]
		for _, v := range c {
			if v.Valid() {
				buf = append(buf, v)
			}
		}
		if rank != nil {
			slices.SortStableFunc(buf, func(x, y prob.Var) int {
				rx, ry := rank(x), rank(y)
				if rx != ry {
					return rx - ry
				}
				return int(x - y)
			})
		}
		for _, v := range buf {
			if !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}
