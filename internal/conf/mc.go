package conf

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/freelist"
	"repro/internal/prob"
	"repro/internal/table"
)

// This file is lineage collection, which every lineage tier starts with, and
// the Monte Carlo tier. The exact operator (operator.go) needs a
// hierarchical signature and fails on queries without one (#P-hard in
// general); the lineage tiers need nothing: collection consumes the same
// answer stream (data columns plus V/P column pairs) as a Source sink —
// nothing of the answer is held but one clause per distinct (answer,
// clause) — and groups it into one lineage DNF per distinct answer, whose
// confidence Monte Carlo then estimates with the (ε, δ) samplers of
// internal/prob. Because the tiers work on raw lineage they are also sound
// for answers whose duplicate variables are correlated (e.g. self-joins
// through aliases that do not select disjoint tuples), where the exact
// operator's independence assumptions would not hold.

// Lineage is the per-answer DNF decomposition of an answer relation: one
// clause per contributing input-tuple combination (paper §I), one formula
// per distinct answer, plus the marginal probabilities of every variable
// mentioned.
type Lineage struct {
	// Schema covers the data columns of the input, in input order.
	Schema *table.Schema
	// Keys holds the distinct answers projected onto the data columns,
	// sorted ascending (the operator's deterministic output order).
	Keys []table.Tuple
	// DNFs aligns with Keys: DNFs[i] is the lineage of Keys[i].
	DNFs []*prob.DNF
	// Assign maps every variable of the input to its marginal probability,
	// and records as its origin (Assign.From) the index into Sources of the
	// source table whose V column carried it — the hook for
	// signature-derived OBDD variable orders (obdd.go).
	Assign *prob.Assignment
	// Sources names the input's source tables, in schema order.
	Sources []string
	// Clauses counts lineage clauses across all answers.
	Clauses int64
	// Vars counts the distinct variables mentioned across all answers.
	Vars int64
	// DupRows counts input rows whose clause duplicated one already in its
	// answer's DNF (the dedup hits of the clause-hash chains).
	DupRows int64
	// Input counts the rows that entered lineage collection.
	Input int64

	bufs lineageBufs
}

// lineageBufs is the storage a Lineage points into — the answers' key
// cells, the clauses' literals, the DNFs and their clause headers — and its
// Keys, DNFs and Assign arrays. Collection draws it from the engine's free
// list (internal/freelist), and Release gives it back.
type lineageBufs struct {
	keys    []table.Value // group g's key at [g·w, (g+1)·w): Keys point into it
	arena   []prob.Var    // every clause's literals: the DNFs' clauses point into it
	headers []prob.Clause // the DNFs' clause headers, DNF by DNF
	dnfs    []prob.DNF
	lease   freelist.Lease
	pooled  bool // drawn from the free list, and owed back to it
}

// The shapes collection draws that no other user does.
var (
	valueLists  = freelist.PtrSlices[table.Value]()
	tupleLists  = freelist.PtrSlices[table.Tuple]()
	clauseLists = freelist.PtrSlices[prob.Clause]()
	dnfLists    = freelist.PtrSlices[prob.DNF]()
	dnfPtrLists = freelist.PtrSlices[*prob.DNF]()
	varLists    = freelist.Slices[prob.Var]()
	groupLists  = freelist.Slices[lineageGroup]()
	entryLists  = freelist.Slices[lineageClause]()
)

// Release gives what the lineage points into back to the free list, once
// its last reader is done: every tier run over it has returned, and with it
// every worker the tier started. Keys, DNFs and Assign must not be read
// afterwards — a tier's output rows copy the key cells they need
// (Lineage.row). A second Release finds nothing; a lineage never released
// leaves its storage to the collector.
func (l *Lineage) Release() {
	b := &l.bufs
	if !b.pooled {
		return
	}
	ls := &b.lease
	valueLists.Put(ls, b.keys)
	varLists.Put(ls, b.arena)
	clauseLists.Put(ls, b.headers)
	dnfLists.Put(ls, b.dnfs)
	tupleLists.Put(ls, l.Keys)
	dnfPtrLists.Put(ls, l.DNFs)
	l.Assign.Recycle(ls)
	l.Keys, l.DNFs, l.bufs = nil, nil, lineageBufs{}
}

// LineageStats is the head of every lineage tier's record (TierStats): what
// collection saw, whatever then computes the confidences.
type LineageStats struct {
	InputTuples  int64 // rows entering lineage collection
	OutputTuples int64 // distinct answers
	Clauses      int64 // lineage clauses across all answers
	Vars         int64 // distinct lineage variables across all answers
	DupRows      int64 // input rows deduplicated away during collection
}

// Stats summarizes the collected lineage.
func (l *Lineage) Stats() LineageStats {
	return LineageStats{InputTuples: l.Input, OutputTuples: int64(len(l.Keys)), Clauses: l.Clauses, Vars: l.Vars, DupRows: l.DupRows}
}

// output returns the empty result relation of a lineage tier: the data
// columns plus the conf column. Tiers append row(i, p) in Keys order, which
// leaves it sorted by the data columns.
func (l *Lineage) output() *table.Relation {
	cols := append(append([]table.Column(nil), l.Schema.Cols...), table.DataCol(ConfCol, table.KindFloat))
	return table.NewRelation(table.NewSchema(cols...))
}

// row is answer i's output row under confidence p.
func (l *Lineage) row(i int, p float64) table.Tuple {
	key := l.Keys[i]
	row := make(table.Tuple, 0, len(key)+1)
	return append(append(row, key...), table.Float(p))
}

// CollectLineage groups an answer relation by its data columns into one
// lineage DNF per distinct answer: CollectLineageFrom over the relation.
func CollectLineage(rel *table.Relation) (*Lineage, error) {
	return CollectLineageFrom(context.Background(), FromRelation(rel))
}

// CollectLineageFrom groups the rows of src by their data columns and builds
// one lineage DNF per distinct answer: each input row contributes the clause
// conjoining the row's variables (one per source table; deterministic
// tuples, V = ⊤, drop out). A Boolean answer (no data columns) yields at
// most one group. src is consumed as a sink — borrowed column batches — so
// a streamed answer is never materialized: a row leaves nothing behind but
// its clause's literals, and those only when its answer did not have the
// clause yet. ctx is checked between the batches of a relation; a streamed
// source's feed polls its own.
//
// Grouping is by hash, not by sort: each row gets a dense group id and
// appends its clause to a lineage-wide arena unless its answer already has
// it; only the distinct answers are then sorted. The result does not depend
// on the input's row order beyond which of several Compare-equal keys
// represents an answer (the first to arrive): Keys are sorted, every DNF's
// clauses are sorted below, and the counters count sets.
func CollectLineageFrom(ctx context.Context, src *Source) (*Lineage, error) {
	return collectLineage(ctx, src, ^uint64(0))
}

// collectLineage is CollectLineageFrom with every hash ANDed with hashMask —
// the seam through which tests force hash collisions between distinct
// answers and between distinct clauses.
func collectLineage(ctx context.Context, src *Source, hashMask uint64) (*Lineage, error) {
	c, err := newCollector(src.Schema, hashMask)
	if err != nil {
		return nil, err
	}
	if err := src.push(ctx, c); err != nil {
		// What was collected so far is consistent: finish it, to give
		// every table back the one way a lineage does.
		c.finish().Release()
		return nil, err
	}
	src.rows = c.l.Input
	return c.finish(), nil
}

// collector is lineage collection's sink. Its two tables are arrays of
// chain heads (entry index + 1, 0 = empty), kept at no fewer buckets than
// entries and doubled — rehashed from the entries — as the stream grows,
// since its length is not known up front; the equality-checked chains run
// through the entries themselves, so nothing allocates per entry. Answers
// go by the hash of their data columns (ColBatch.HashInto, straight from the
// column vectors), clauses by the clause hash folded with the group id — one
// table for the whole lineage. The Monte Carlo path needs each answer's
// whole formula in memory anyway, so in-memory tables — unlike the exact
// operator's external sort — are the right tool.
//
// Every table and arena comes off the engine's free list: the stream-grown
// ones are the largest idle buffers of their shape, the chain-head tables
// the best fit for each doubling. The collector's scratch goes back when
// it finishes; what the lineage points into goes back with
// Lineage.Release.
type collector struct {
	l                           *Lineage
	lease                       *freelist.Lease // the lineage's
	mask                        uint64
	dataCols, varCols, probCols []int

	// keys holds group g's key at [g·w, (g+1)·w), w = len(dataCols): copied
	// out of the borrowed input when the group is created.
	keys    []table.Value
	groups  []lineageGroup
	clauses []lineageClause
	// arena holds every clause's literals; a row builds its candidate at the
	// tail, which a duplicate truncates away again.
	arena             []prob.Var
	groupAt, clauseAt []int32
	hashes            []uint64 // a column batch's row hashes
}

// lineageGroup is one distinct answer during collection.
type lineageGroup struct {
	hash    uint64 // the key's hash, masked
	next    int32  // next group in the same bucket, -1 at the end
	clauses int32  // distinct clauses collected so far
}

// lineageClause is one distinct clause during collection: n literals at
// arena offset off, in the DNF of group.
type lineageClause struct {
	group, off, n int32
	next          int32 // next clause in the same bucket, -1 at the end
}

// minBuckets is the chain-head tables' starting size.
const minBuckets = 256

func newCollector(schema *table.Schema, hashMask uint64) (*collector, error) {
	l := &Lineage{Assign: prob.NewAssignment(), bufs: lineageBufs{pooled: true}}
	c := &collector{l: l, lease: &l.bufs.lease, mask: hashMask, dataCols: schema.DataIndexes()}
	for _, src := range schema.Sources() {
		vi, pi := schema.VarIndex(src), schema.ProbIndex(src)
		if pi < 0 {
			return nil, fmt.Errorf("conf: input has V(%s) but no P(%s): %v", src, src, schema.Names())
		}
		c.varCols = append(c.varCols, vi)
		c.probCols = append(c.probCols, pi)
		c.l.Sources = append(c.l.Sources, src)
	}
	c.l.Schema = schema.Project(c.dataCols)
	c.l.Assign.Draw(c.lease)
	c.keys, _ = valueLists.Largest(c.lease)
	if c.keys == nil {
		// Non-nil even for a Boolean answer, whose one key is the empty tuple.
		c.keys = make([]table.Value, 0, len(c.dataCols))
	}
	c.groups, _ = groupLists.Largest(c.lease)
	c.clauses, _ = entryLists.Largest(c.lease)
	c.arena, _ = varLists.Largest(c.lease)
	c.hashes, _ = freelist.Uint64s.Fit(c.lease, 8*table.BatchSize)
	c.groupAt, c.clauseAt = c.chainHeads(minBuckets), c.chainHeads(minBuckets)
	return c, nil
}

// int32s returns an int32 slice of length n, of unspecified contents: the
// best fit off the free list.
func (c *collector) int32s(n int) []int32 {
	t, _ := freelist.Int32s.Fit(c.lease, 4*int64(n))
	return sized(t, n)
}

// chainHeads returns an empty chain-head table of n buckets.
func (c *collector) chainHeads(n int) []int32 {
	t := c.int32s(n)
	clear(t)
	return t
}

// sized returns s at length n, of unspecified contents: reallocated when
// its capacity falls short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// releaseScratch gives the collector's own tables back to the free list.
func (c *collector) releaseScratch() {
	groupLists.Put(c.lease, c.groups)
	entryLists.Put(c.lease, c.clauses)
	freelist.Int32s.Put(c.lease, c.groupAt)
	freelist.Int32s.Put(c.lease, c.clauseAt)
	freelist.Uint64s.Put(c.lease, c.hashes)
	c.groups, c.clauses, c.groupAt, c.clauseAt, c.hashes = nil, nil, nil, nil, nil
}

// AddBatch collects a column batch's live rows straight from the vectors.
func (c *collector) AddBatch(b *table.ColBatch) error {
	c.hashes = b.HashInto(c.dataCols, c.hashes)
	for i, h := range c.hashes {
		row := b.RowID(i)
		c.arena = reserve(c.arena, len(c.varCols))
		start := len(c.arena)
		for k, vi := range c.varCols {
			if err := c.literal(prob.Var(b.Cols[vi].Ints[row]), b.Cols[c.probCols[k]].Floats[row], k); err != nil {
				return err
			}
		}
		h &= c.mask
		head := &c.groupAt[bucket(h, len(c.groupAt))]
		g := *head - 1
		for g >= 0 && !(c.groups[g].hash == h && c.batchKeyIs(b, row, g)) {
			g = c.groups[g].next
		}
		if g < 0 {
			for _, col := range c.dataCols {
				c.keys = append(c.keys, b.Cols[col].Value(row))
			}
			g = c.newGroup(h, head)
		}
		c.clause(g, start)
	}
	return nil
}

// reserve makes room for k more elements of a slice the stream grows,
// doubling its capacity when it reallocates: append's 1.25× steps for large
// slices would copy it five times over.
func reserve[T any](s []T, k int) []T {
	if len(s)+k > cap(s) {
		s = slices.Grow(s, max(k, cap(s)))
	}
	return s
}

func bucket(h uint64, buckets int) int { return int((h ^ h>>32) & uint64(buckets-1)) }

// key is group g's key, in collector-owned storage.
func (c *collector) key(g int32) table.Tuple {
	w := len(c.dataCols)
	o := int(g) * w
	return c.keys[o : o+w : o+w]
}

func (c *collector) batchKeyIs(b *table.ColBatch, row int, g int32) bool {
	key := c.key(g)
	for j, col := range c.dataCols {
		if b.Cols[col].CompareValue(row, key[j]) != 0 {
			return false
		}
	}
	return true
}

// literal records variable v of marginal p, read from source k, as a
// literal of the row's candidate clause; ⊤ drops out.
func (c *collector) literal(v prob.Var, p float64, k int) error {
	if !v.Valid() {
		return nil
	}
	if prev, ok := c.l.Assign.Lookup(v); !ok {
		if err := c.l.Assign.SetFrom(v, p, int32(k)); err != nil {
			return fmt.Errorf("conf: row %d: %w", c.l.Input, err)
		}
	} else if prev != p {
		return fmt.Errorf("conf: variable %v carries two marginals, %g and %g (corrupt input)", v, prev, p)
	}
	c.arena = append(c.arena, v)
	return nil
}

// newGroup opens a group whose key was just appended to keys, chained at
// head.
func (c *collector) newGroup(h uint64, head *int32) int32 {
	g := int32(len(c.groups))
	c.groups = append(c.groups, lineageGroup{hash: h, next: *head - 1})
	*head = g + 1
	if len(c.groups) > len(c.groupAt) {
		old := c.groupAt
		c.groupAt = c.chainHeads(2 * len(old))
		freelist.Int32s.Put(c.lease, old)
		for i := range c.groups {
			at := &c.groupAt[bucket(c.groups[i].hash, len(c.groupAt))]
			c.groups[i].next = *at - 1
			*at = int32(i) + 1
		}
	}
	return g
}

// clause ends a row of group g whose candidate literals start at arena
// offset start: the clause joins g's DNF unless g already has it.
func (c *collector) clause(g int32, start int) {
	c.l.Input++
	// Normalize the candidate in place (sorted, deduplicated), the same
	// canonical form prob.NewClause produces.
	slices.Sort(c.arena[start:])
	c.arena = c.arena[:start+len(slices.Compact(c.arena[start:]))]
	vs := prob.Clause(c.arena[start:])
	head := &c.clauseAt[bucket(c.clauseHash(vs, g), len(c.clauseAt))]
	k := *head - 1
	for k >= 0 && (c.clauses[k].group != g || !vs.Equal(c.lits(c.clauses[k]))) {
		k = c.clauses[k].next
	}
	if k >= 0 {
		c.l.DupRows++
		c.arena = c.arena[:start]
		return
	}
	c.clauses = append(reserve(c.clauses, 1), lineageClause{group: g, off: int32(start), n: int32(len(vs)), next: *head - 1})
	*head = int32(len(c.clauses))
	c.groups[g].clauses++
	if len(c.clauses) > len(c.clauseAt) {
		old := c.clauseAt
		c.clauseAt = c.chainHeads(2 * len(old))
		freelist.Int32s.Put(c.lease, old)
		for i, cl := range c.clauses {
			at := &c.clauseAt[bucket(c.clauseHash(c.lits(cl), cl.group), len(c.clauseAt))]
			c.clauses[i].next = *at - 1
			*at = int32(i) + 1
		}
	}
}

func (c *collector) clauseHash(vs prob.Clause, g int32) uint64 {
	return prob.FNVUint32(vs.Hash(), uint32(g)) & c.mask
}

func (c *collector) lits(cl lineageClause) prob.Clause {
	return c.arena[cl.off : cl.off+cl.n : cl.off+cl.n]
}

// finish emits the lineage in key order: sort the distinct answers, lay the
// clause headers of all DNFs out in one slice, group by group, and drop each
// clause into its group's range. The collector's scratch goes back to the
// free list; the lineage keeps what it points into until Release.
func (c *collector) finish() *Lineage {
	l := c.l
	defer c.releaseScratch()
	l.Vars, l.Clauses = int64(l.Assign.Len()), int64(len(c.clauses))
	l.bufs.keys, l.bufs.arena = c.keys, c.arena
	if len(c.groups) == 0 {
		return l
	}
	n := len(c.groups)
	order := c.int32s(n)
	defer freelist.Int32s.Put(c.lease, order)
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.CompareFunc(c.key(a), c.key(b), table.Compare)
	})
	l.Keys, _ = tupleLists.Largest(c.lease)
	l.DNFs, _ = dnfPtrLists.Largest(c.lease)
	dnfs, _ := dnfLists.Largest(c.lease)
	headers, _ := clauseLists.Largest(c.lease)
	l.Keys, l.DNFs, dnfs, headers = sized(l.Keys, n), sized(l.DNFs, n), sized(dnfs, n), sized(headers, len(c.clauses))
	l.bufs.dnfs, l.bufs.headers = dnfs, headers
	at := c.int32s(n) // per group: where its next clause header goes
	defer freelist.Int32s.Put(c.lease, at)
	off := int32(0)
	for i, g := range order {
		l.Keys[i] = c.key(g)
		at[g] = off
		off += c.groups[g].clauses
		dnfs[i].Clauses = headers[at[g]:off:off]
		l.DNFs[i] = &dnfs[i]
	}
	for _, cl := range c.clauses {
		headers[at[cl.group]] = c.lits(cl)
		at[cl.group]++
	}
	for _, d := range l.DNFs {
		// Canonicalize the clause order (clauses are sorted var lists, so
		// lexicographic order is well defined). This makes every downstream
		// consumer — the Karp–Luby sampler's clause-index stream, the OBDD
		// occurrence order — a function of the answer's lineage *set* rather
		// than of the join's row order, which is what lets the engine promise
		// bit-identical confidences across worker counts and join strategies.
		slices.SortFunc(d.Clauses, slices.Compare[prob.Clause])
	}
	return l
}

// MonteCarloLineage estimates per-answer confidences of an already
// collected lineage — the Monte Carlo tier of the contract in tier.go. The
// output has the lineage's data columns plus the conf column, sorted by the
// data columns; with a fixed opts.Seed it is a deterministic function of
// the input. ctx cancels the samplers mid-run; a nil ctx means no
// cancellation. The samplers fan out inside
// prob.EstimateAllCtx (per-answer seeded streams on opts.Pool), not on the
// compilation tiers' per-answer driver; the record and the output rows are
// the shared ones.
func MonteCarloLineage(ctx context.Context, l *Lineage, opts prob.MCOptions) (*table.Relation, *TierStats, error) {
	ests, err := prob.EstimateAllCtx(ctx, l.DNFs, l.Assign, opts)
	if err != nil {
		return nil, nil, err
	}
	out := l.output()
	stats := &TierStats{LineageStats: l.Stats(), Tier: TierMC}
	for i := range l.Keys {
		out.Rows = append(out.Rows, l.row(i, ests[i].P))
		stats.Samples += int64(ests[i].Samples)
		if n := int64(ests[i].Samples); n > stats.MaxAnswerSamples {
			stats.MaxAnswerSamples = n
		}
		if ests[i].Samples == 0 {
			stats.ExactAnswers++
		}
		if ests[i].Capped {
			stats.Capped++
		}
		if ests[i].Stopped {
			stats.Stopped++
		}
		if ests[i].Epsilon > stats.MaxEpsilon {
			stats.MaxEpsilon = ests[i].Epsilon
		}
	}
	return out, stats, nil
}
