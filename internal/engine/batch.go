package engine

import (
	"context"

	"repro/internal/table"
)

// This file is the row tier's pull protocol and its consumers: operators
// move tuples in batches of up to BatchSize through reused buffers, so the
// per-tuple costs of the pull model — one interface call, one context check,
// one buffer allocation per row — are paid once per batch. The collectors
// (CollectCtx, Count) drive whole pipelines batch by batch with cancellation
// checks at batch boundaries; the few consumers whose algorithm is per-tuple
// (merge join, sorted group-by) read through a Cursor.

// BatchSize is the default number of tuples moved per NextBatch call. Large
// enough to amortize per-batch overheads, small enough that a batch of
// typical tuples stays cache-resident.
const BatchSize = 1024

// StableTuples marks operators whose emitted tuples stay valid for the
// operator's whole lifetime (they never reuse tuple storage): in-memory and
// heap scans, sorts, materialized joins, and pass-through wrappers over such
// inputs. Consumers use it to skip defensive clones when materializing.
type StableTuples interface {
	StableTuples() bool
}

// Stable reports whether op promises stable output tuples.
func Stable(op Operator) bool {
	s, ok := op.(StableTuples)
	return ok && s.StableTuples()
}

// slotBufs is a reusable set of per-slot output buffers for operators that
// compute their output tuples (projections, join combiners): slot i of a
// batch writes into bufs[i], so all tuples of one batch are simultaneously
// valid while nothing is allocated after warm-up. The buffers are carved
// from shared backing arrays, a block of slots per allocation.
type slotBufs struct {
	bufs  []table.Tuple
	width int
}

// slotBlock is how many slot buffers share one backing array.
const slotBlock = 128

// slot returns the i-th buffer, sized to width values.
func (s *slotBufs) slot(i, width int) table.Tuple {
	if width != s.width {
		s.bufs = s.bufs[:0]
		s.width = width
	}
	for i >= len(s.bufs) {
		vals := make(table.Tuple, slotBlock*width)
		for k := 0; k < slotBlock; k++ {
			s.bufs = append(s.bufs, vals[k*width:(k+1)*width:(k+1)*width])
		}
	}
	return s.bufs[i]
}

// batchScratch sizes a reusable input batch to match the consumer's output
// batch, capped at BatchSize.
func batchScratch(buf []table.Tuple, want int) []table.Tuple {
	if want > BatchSize {
		want = BatchSize
	}
	if cap(buf) < want {
		return make([]table.Tuple, want)
	}
	return buf[:want]
}

// Cursor reads an operator's stream one tuple at a time through a reused
// batch — the adapter for consumers whose algorithm is per-tuple. A tuple
// returned by Next is valid until the Next call that refills the batch;
// Keep makes one outlive that.
type Cursor struct {
	op     Operator
	stable bool
	buf    []table.Tuple
	n, pos int
}

// Reset points the cursor at op's (re)opened stream.
func (c *Cursor) Reset(op Operator) {
	c.op, c.stable = op, Stable(op)
	c.buf = batchScratch(c.buf, BatchSize)
	c.n, c.pos = 0, 0
}

// Next returns the next tuple, ok=false at end of stream.
func (c *Cursor) Next() (table.Tuple, bool, error) {
	if c.pos >= c.n {
		n, err := c.op.NextBatch(c.buf)
		if err != nil || n == 0 {
			return nil, false, err
		}
		c.n, c.pos = n, 0
	}
	t := c.buf[c.pos]
	c.pos++
	return t, true, nil
}

// Keep returns t in storage that survives refills: t itself when the input
// promises StableTuples, a clone otherwise.
func (c *Cursor) Keep(t table.Tuple) table.Tuple {
	if c.stable {
		return t
	}
	return t.Clone()
}

// stableReader pulls an operator's stream a batch at a time and makes every
// tuple of the batch outlive it: cloned through a slab unless the operator
// promises stable storage — the one copy of the materialization rule every
// drain and build site shares.
type stableReader struct {
	op     Operator
	stable bool
	buf    []table.Tuple
	slab   table.Slab
}

func newStableReader(op Operator, batchSize int) *stableReader {
	if batchSize <= 0 {
		batchSize = BatchSize
	}
	return &stableReader{op: op, stable: Stable(op), buf: make([]table.Tuple, batchSize)}
}

// next returns the next batch (empty at end of stream); the slice is reused,
// the tuples in it are not.
func (r *stableReader) next() ([]table.Tuple, error) {
	n, err := r.op.NextBatch(r.buf)
	if err != nil {
		return nil, err
	}
	if !r.stable {
		for i, t := range r.buf[:n] {
			r.buf[i] = r.slab.Clone(t)
		}
	}
	return r.buf[:n], nil
}

// drainCtx pulls op's whole stream batch by batch and hands every tuple, in
// stable storage, to emit. The context (if any) is checked once per batch.
func drainCtx(ctx context.Context, op Operator, batchSize int, emit func(table.Tuple) error) error {
	r := newStableReader(op, batchSize)
	for {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		rows, err := r.next()
		if err != nil || len(rows) == 0 {
			return err
		}
		for _, t := range rows {
			if err := emit(t); err != nil {
				return err
			}
		}
	}
}

// drainEach is drainCtx without cancellation at the default batch size.
func drainEach(op Operator, emit func(table.Tuple) error) error {
	return drainCtx(nil, op, BatchSize, emit)
}

// CollectCtx drains an operator into an in-memory relation (opening and
// closing it), batch by batch: the context is checked once per batch, and
// tuples are cloned through a slab allocator — or aliased directly when the
// operator promises stable storage.
func CollectCtx(ctx context.Context, op Operator) (*table.Relation, error) {
	return CollectCtxBatch(ctx, op, BatchSize)
}

// CollectCtxBatch is CollectCtx with an explicit batch size — exposed so
// tests can pin result stability across batch sizes.
func CollectCtxBatch(ctx context.Context, op Operator, batchSize int) (*table.Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	rel := table.NewRelation(op.Schema())
	err := drainCtx(ctx, op, batchSize, func(t table.Tuple) error {
		rel.Rows = append(rel.Rows, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// Collect drains an operator into an in-memory relation.
func Collect(op Operator) (*table.Relation, error) {
	return CollectCtx(nil, op)
}

// Count drains an operator and returns only the row count.
func Count(op Operator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	var n int64
	buf := make([]table.Tuple, BatchSize)
	for {
		k, err := op.NextBatch(buf)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return n, nil
		}
		n += int64(k)
	}
}
