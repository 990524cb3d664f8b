package engine

import (
	"context"

	"repro/internal/table"
)

// This file holds the batch protocols' shared pieces and the drain: the
// pull loops move rows in batches of up to BatchSize through reused
// buffers, so the per-row costs of the pull model — one interface call, one
// context check, one buffer allocation per row — are paid once per batch.
// StreamCtx drives a whole columnar pipeline into a Sink with a
// cancellation check at every batch boundary; the grace join's row
// operators pump through pumpRows, and its per-tuple merge reads through a
// Cursor.

// BatchSize is the number of rows moved per NextColBatch (or NextBatch)
// call. Large enough to amortize per-batch overheads, small enough that a
// batch of typical tuples stays cache-resident.
const BatchSize = 1024

// StableTuples marks row operators whose emitted tuples stay valid for the
// operator's whole lifetime (they never reuse tuple storage): in-memory
// scans and sorts. Consumers use it to skip defensive clones.
type StableTuples interface {
	StableTuples() bool
}

// Stable reports whether op promises stable output tuples.
func Stable(op Operator) bool {
	s, ok := op.(StableTuples)
	return ok && s.StableTuples()
}

// slotBufs is a reusable set of per-slot output buffers for row operators
// that build their output tuples (ColToRows, the merge join): slot i of a
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

// Sink consumes a stream a column batch at a time. The batch is borrowed —
// valid only until the call returns — so a sink copies what it keeps. The
// external sorter (storage.ExternalSorter) is one: a sort+scan placement
// streams its input straight into run generation.
type Sink interface {
	AddBatch(b *table.ColBatch) error
}

// StreamCtx opens op, pushes its whole stream into sink and closes it — the
// one drain every consumer of a whole pipeline goes through. Dead columns
// are pruned first (pruneCols), so heap scans decode only what the tree
// reads. The context is checked before the tree opens and before every
// batch — the only bound on a pipeline's running time; a hash join drains
// its build side inside Open, between two checks.
func StreamCtx(ctx context.Context, op ColOperator, sink Sink) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	pruneCols(op, nil)
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
// each batch, borrowed, to add — the row protocol's one pull loop, under
// the grace join's sorts.
func pumpRows(op Operator, add func([]table.Tuple) error) error {
	buf := make([]table.Tuple, BatchSize)
	for {
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
	Rel  *table.Relation
	slab table.Slab
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
