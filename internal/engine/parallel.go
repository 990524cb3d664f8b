package engine

import (
	"context"
	"fmt"

	"repro/internal/pool"
	"repro/internal/table"
)

// This file is the partition-parallel side of the executor: chunked
// evaluation of per-tuple pipelines over in-memory relations (parallel
// scans) and a hash-partitioned join, both driven by the shared worker pool
// of internal/pool. Both produce output that is a deterministic function of
// their input alone — independent of the worker count and of scheduling —
// which is what lets the engine guarantee bit-identical results for
// workers=1 and workers=N.

// ParallelMinRows is the input size below which the parallel paths fall back
// to serial execution; see pool.ParallelMinRows.
const ParallelMinRows = pool.ParallelMinRows

// CollectChunks evaluates a per-tuple operator pipeline over an in-memory
// relation in parallel: the rows are split into contiguous chunks, each
// worker runs its own pipeline instance (built by wrap over a scan of its
// chunk) and the chunk outputs are concatenated in chunk order. Because the
// pipeline is row-wise and order-preserving, the result equals a serial
// wrap(scan(rel)) collection regardless of the chunk count — so the worker
// count never changes the output, only the wall-clock. Each chunk's pipeline
// is lowered to the columnar tier when possible (CollectCtxVec) unless
// rowExec pins the row tier: the same rows in the same order either way.
//
// wrap must build a fresh, independent pipeline on every call: instances run
// concurrently.
func CollectChunks(ctx context.Context, p *pool.Pool, rel *table.Relation, wrap func(Operator) (Operator, error), rowExec bool) (*table.Relation, error) {
	collect := func(sub *table.Relation) (*table.Relation, error) {
		op, err := wrap(NewMemScan(sub))
		if err != nil {
			return nil, err
		}
		if rowExec {
			return CollectCtx(ctx, op)
		}
		out, _, err := CollectCtxVec(ctx, op)
		return out, err
	}
	n := rel.Len()
	chunks := p.Workers()
	if !p.Parallel() || n < ParallelMinRows {
		return collect(rel)
	}
	parts := make([]*table.Relation, chunks)
	err := p.Do(ctx, chunks, func(i int) (err error) {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		parts[i], err = collect(&table.Relation{Schema: rel.Schema, Rows: rel.Rows[lo:hi]})
		return err
	})
	if err != nil {
		return nil, err
	}
	out := table.NewRelation(parts[0].Schema)
	for _, part := range parts {
		out.Rows = append(out.Rows, part.Rows...)
	}
	return out, nil
}

// joinPartitions is the fixed fan-out of a partitioned join. It must not
// depend on the worker count: the partition boundaries shape the output
// order, and the engine promises order stability across worker counts.
const joinPartitions = 16

// partitionedJoin is the tier-independent body of the partition-parallel
// equi-join: both inputs are drained with their join-key hashes and split by
// hash into a fixed number of partitions, the per-partition hash joins run
// on the worker pool, and the partition outputs are concatenated in
// partition order. Matching keys land in the same partition by construction,
// so the result is the same multiset as HashJoin's; the row order is a
// deterministic function of the inputs and the partition count — never of
// the worker count or scheduling. PartitionedHashJoin and
// ColPartitionedHashJoin add their tier's input sources and output
// streaming; the materialized result is byte-for-byte the same in both.
type partitionedJoin struct {
	LeftKeys, RightKeys []int
	Pool                *pool.Pool
	Ctx                 context.Context
	out                 *table.Schema
	rows                []table.Tuple
	pos                 int
}

// Schema returns left ++ right.
func (j *partitionedJoin) Schema() *table.Schema { return j.out }

// drainHashed materializes a join input (opening and closing it) through
// its tier's source: stable rows along with each row's join-key hash.
func drainHashed(ctx context.Context, in stream, src buildSource) ([]table.Tuple, []uint64, error) {
	if err := in.Open(); err != nil {
		return nil, nil, err
	}
	defer in.Close()
	var rows []table.Tuple
	var hashes []uint64
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		r, h, err := src()
		if err != nil || len(r) == 0 {
			return rows, hashes, err
		}
		rows = append(rows, r...)
		hashes = append(hashes, h...)
	}
}

// open drains and partitions both inputs and joins the partitions in
// parallel.
func (j *partitionedJoin) open(left, right stream, lsrc, rsrc buildSource) error {
	l, lh, err := drainHashed(j.Ctx, left, lsrc)
	if err != nil {
		return err
	}
	r, rh, err := drainHashed(j.Ctx, right, rsrc)
	if err != nil {
		return err
	}
	j.rows, j.pos = nil, 0
	// Small inputs skip the partitioning: one serial build+probe costs less
	// than 16-way hashing plus pool dispatch. The switch depends only on
	// the input (never on the worker count), so the output order stays a
	// deterministic function of the inputs.
	if len(l)+len(r) < ParallelMinRows {
		j.rows = joinPartitionHashed(l, lh, r, rh, j.LeftKeys, j.RightKeys)
		return nil
	}
	lParts, lhParts := partitionHashed(l, lh)
	rParts, rhParts := partitionHashed(r, rh)
	outs := make([][]table.Tuple, joinPartitions)
	err = j.Pool.Do(j.Ctx, joinPartitions, func(p int) error {
		outs[p] = joinPartitionHashed(lParts[p], lhParts[p], rParts[p], rhParts[p], j.LeftKeys, j.RightKeys)
		return nil
	})
	if err != nil {
		return err
	}
	for _, part := range outs {
		j.rows = append(j.rows, part...)
	}
	return nil
}

// partitionHashed splits rows by hash into joinPartitions buckets,
// preserving input order within each, with the hashes carried along.
func partitionHashed(rows []table.Tuple, hashes []uint64) ([][]table.Tuple, [][]uint64) {
	parts := make([][]table.Tuple, joinPartitions)
	hparts := make([][]uint64, joinPartitions)
	for i, t := range rows {
		p := int(hashes[i] % joinPartitions)
		parts[p] = append(parts[p], t)
		hparts[p] = append(hparts[p], hashes[i])
	}
	return parts, hparts
}

// joinPartitionHashed builds a hash table over the right rows and probes
// with the left rows in order — one partition's worth of HashJoin, with
// every row's hash precomputed. Matches are emitted First then Rest into a
// per-partition slab (they are retained by the caller).
func joinPartitionHashed(left []table.Tuple, lh []uint64, right []table.Tuple, rh []uint64, lk, rk []int) []table.Tuple {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	built := table.NewTupleMap(rk, len(right))
	for i, t := range right {
		built.AddHashed(rh[i], t)
	}
	var out []table.Tuple
	var slab table.Slab
	emit := func(l, r table.Tuple) {
		row := slab.Alloc(len(l) + len(r))
		copy(row, l)
		copy(row[len(l):], r)
		out = append(out, row)
	}
	for i, l := range left {
		g, ok := built.LookupHashed(lh[i], l, lk)
		if !ok {
			continue
		}
		emit(l, g.First)
		for _, r := range g.Rest {
			emit(l, r)
		}
	}
	return out
}

// Close drops the materialized result.
func (j *partitionedJoin) Close() error {
	j.rows = nil
	return nil
}

// PartitionedHashJoin is the row tier's partition-parallel equi-join.
type PartitionedHashJoin struct {
	Left, Right Operator
	partitionedJoin
}

// NewPartitionedHashJoin builds a partition-parallel join over the pool.
func NewPartitionedHashJoin(left, right Operator, leftKeys, rightKeys []int, p *pool.Pool, ctx context.Context) (*PartitionedHashJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("engine: hash join key arity mismatch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &PartitionedHashJoin{Left: left, Right: right, partitionedJoin: partitionedJoin{
		LeftKeys: leftKeys, RightKeys: rightKeys,
		Pool: p, Ctx: ctx,
		out: left.Schema().Concat(right.Schema()),
	}}, nil
}

// Open drains both inputs through the row protocol and joins them.
func (j *PartitionedHashJoin) Open() error {
	return j.open(j.Left, j.Right, rowBuildSource(j.Left, j.LeftKeys), rowBuildSource(j.Right, j.RightKeys))
}

// NextBatch streams the materialized join result.
func (j *PartitionedHashJoin) NextBatch(dst []table.Tuple) (int, error) {
	n := copy(dst, j.rows[j.pos:])
	j.pos += n
	return n, nil
}

// StableTuples: the join result is materialized in slab storage.
func (j *PartitionedHashJoin) StableTuples() bool { return true }
