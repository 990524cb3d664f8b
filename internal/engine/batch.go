package engine

import (
	"context"

	"repro/internal/table"
)

// This file is the row tier's pull protocol and its consumers: operators
// move tuples in batches of up to BatchSize through reused buffers, so the
// per-tuple costs of the pull model — one interface call, one context check,
// one buffer allocation per row — are paid once per batch. The drains
// (StreamCtx into a Sink, the collectors built on it, Count) drive whole
// pipelines batch by batch with cancellation checks at batch boundaries; the
// few consumers whose algorithm is per-tuple (merge join, sorted group-by)
// read through a Cursor.

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
// promises stable storage — the materialization rule of the row tier's join
// builds.
type stableReader struct {
	op     Operator
	stable bool
	buf    []table.Tuple
	slab   table.Slab
}

func newStableReader(op Operator) *stableReader {
	return &stableReader{op: op, stable: Stable(op), buf: make([]table.Tuple, BatchSize)}
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

// Sink consumes a stream batch by batch: column batches when the stream ran
// on the columnar tier, tuple batches otherwise. Either kind of batch is
// borrowed — valid only until the call returns — so a sink copies what it
// keeps. The external sorter (storage.ExternalSorter) is one: a sort+scan
// placement streams its input straight into run generation.
type Sink interface {
	AddBatch(b *table.ColBatch) error
	AddRows(rows []table.Tuple) error
}

// StreamCtx opens op, pushes its whole stream into sink and closes it — the
// one drain every consumer of a whole pipeline goes through. The tree runs
// on the columnar tier when it columnarizes (dead columns pruned) and
// rowExec does not pin the row tier, on the row tier otherwise; the rows and
// their order are the same either way. The context is checked once per
// batch. It reports which tier ran.
func StreamCtx(ctx context.Context, op Operator, rowExec bool, sink Sink) (columnar bool, err error) {
	if !rowExec {
		if cop, ok := Columnarize(op); ok {
			pruneCols(cop, nil)
			return true, streamCols(ctx, cop, sink)
		}
	}
	if err := op.Open(); err != nil {
		return false, err
	}
	defer op.Close()
	return false, pumpRows(ctx, op, BatchSize, sink.AddRows)
}

// streamCols is StreamCtx's columnar half: open, pump every batch into the
// sink, close.
func streamCols(ctx context.Context, op ColOperator, sink Sink) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	b := table.NewColBatch(op.Schema())
	for {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		n, err := op.NextColBatch(b)
		if err != nil || n == 0 {
			return err
		}
		if err := sink.AddBatch(b); err != nil {
			return err
		}
	}
}

// pumpRows pulls an opened row operator's stream batch by batch and hands
// each batch, borrowed, to add — the row tier's one pull loop. The context
// (if any) is checked once per batch.
func pumpRows(ctx context.Context, op Operator, batchSize int, add func([]table.Tuple) error) error {
	buf := make([]table.Tuple, batchSize)
	for {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		n, err := op.NextBatch(buf)
		if err != nil || n == 0 {
			return err
		}
		if err := add(buf[:n]); err != nil {
			return err
		}
	}
}

// RelationSink is the Sink that materializes: every row is copied into slab
// storage and appended to Rel.
type RelationSink struct {
	Rel    *table.Relation
	stable bool // the producer's tuples outlive their batch: alias, don't copy
	slab   table.Slab
}

// NewRelationSink returns a sink building a relation of the given schema.
func NewRelationSink(s *table.Schema) *RelationSink {
	return &RelationSink{Rel: table.NewRelation(s)}
}

// AddBatch materializes the batch's live rows.
func (s *RelationSink) AddBatch(b *table.ColBatch) error {
	for i, n := 0, b.Rows(); i < n; i++ {
		t := s.slab.Alloc(len(b.Cols))
		b.WriteRow(i, t)
		s.Rel.Rows = append(s.Rel.Rows, t)
	}
	return nil
}

// AddRows keeps the batch's tuples, cloned through the slab unless the
// producer promised stable storage.
func (s *RelationSink) AddRows(rows []table.Tuple) error {
	for _, t := range rows {
		if !s.stable {
			t = s.slab.Clone(t)
		}
		s.Rel.Rows = append(s.Rel.Rows, t)
	}
	return nil
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
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	sink := NewRelationSink(op.Schema())
	sink.stable = Stable(op)
	if err := pumpRows(ctx, op, batchSize, sink.AddRows); err != nil {
		return nil, err
	}
	return sink.Rel, nil
}

// Collect drains an operator into an in-memory relation.
func Collect(op Operator) (*table.Relation, error) {
	return CollectCtx(nil, op)
}
