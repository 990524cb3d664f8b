package engine

import (
	"context"

	"repro/internal/freelist"
	"repro/internal/table"
)

// This file holds the drain: StreamCtx pulls a columnar pipeline's batches
// through one reused batch into a Sink, so the per-row costs of the pull
// model — one interface call, one context check, one buffer allocation per
// row — are paid once per batch, and cancellation is checked at every batch
// boundary.
//
// The batches operators pull their inputs into have the query as their
// lifetime: their holder — the drain's batch, a projection's or a hash
// join's input batch, a build's pull batch, the grace merge's — draws its
// vectors off the engine's free list when it opens and gives them back when
// it closes, so a later query pulls through the same storage. A projection
// moves vectors between its input's batch and its consumer's (ColProject),
// so a vector may go back through another holder than the one that drew
// it: the holders share one Lease, pullLease, and the free list's fresh
// bytes stay what the holders grew.

// BatchSize is the number of rows moved per NextColBatch call
// (table.BatchSize).
const BatchSize = table.BatchSize

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
	b := drawPull(op.Schema())
	defer recyclePull(b)
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

// pullLease is the one Lease of every pull batch (see the file comment).
var pullLease freelist.Lease

// drawPull returns a batch of the schema whose vectors are the best fits
// for BatchSize rows off the free list, reserved for that many where the
// list had none.
func drawPull(s *table.Schema) *table.ColBatch {
	b := &table.ColBatch{}
	drawPullInto(b, s)
	return b
}

// drawPullInto is drawPull for a batch held by value, which holds no
// storage yet.
func drawPullInto(b *table.ColBatch, s *table.Schema) {
	b.Reset(s)
	b.Draw(&pullLease, BatchSize)
	b.Reserve(BatchSize)
}

// recyclePull gives a pull batch's vectors back, leaving its columns
// empty; nil, or a batch given back already, gives back nothing.
func recyclePull(b *table.ColBatch) {
	if b != nil {
		b.RecycleFit(&pullLease, BatchSize)
	}
}

// RelationSink is the Sink that materializes: every row is copied out and
// appended to Rel, a batch's rows carved out of one backing array.
type RelationSink struct {
	Rel *table.Relation
}

// NewRelationSink returns a sink building a relation of the given schema.
func NewRelationSink(s *table.Schema) *RelationSink {
	return &RelationSink{Rel: table.NewRelation(s)}
}

// AddBatch materializes the batch's live rows.
func (s *RelationSink) AddBatch(b *table.ColBatch) error {
	w := len(b.Cols)
	vals := make([]table.Value, b.Rows()*w)
	for i, n := 0, b.Rows(); i < n; i++ {
		t := table.Tuple(vals[i*w : (i+1)*w : (i+1)*w])
		b.WriteRow(i, t)
		s.Rel.Rows = append(s.Rel.Rows, t)
	}
	return nil
}
