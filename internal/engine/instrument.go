package engine

import "repro/internal/table"

// OpStats accumulates what flowed through one Counted wrapper. The fields
// are plain int64s: every pipeline in this engine is pulled from a single
// goroutine (parallel plans materialize chunks through per-chunk wrappers,
// and joins drain their children serially in Open), so no atomics are
// needed. Read the fields only after the pipeline has been drained.
type OpStats struct {
	Rows       int64 // tuples that passed through
	Batches    int64 // NextBatch calls that returned at least one tuple
	ColBatches int64 // NextColBatch calls that returned at least one live row
}

// CountedOp is a transparent pass-through operator that counts the rows and
// batches flowing out of its input into an OpStats. It preserves the
// stability promise of its input, so wrapping an operator changes nothing
// about execution except the two counter bumps per batch — cheap enough to
// leave in traced plans.
type CountedOp struct {
	In Operator
	S  *OpStats
}

// Counted wraps op so that rows and batches drained from it are tallied
// into s.
func Counted(op Operator, s *OpStats) *CountedOp { return &CountedOp{In: op, S: s} }

// Schema returns the input's schema.
func (c *CountedOp) Schema() *table.Schema { return c.In.Schema() }

// Open opens the input.
func (c *CountedOp) Open() error { return c.In.Open() }

// NextBatch counts and forwards one batch.
func (c *CountedOp) NextBatch(dst []table.Tuple) (int, error) {
	n, err := c.In.NextBatch(dst)
	if n > 0 && err == nil {
		c.S.Rows += int64(n)
		c.S.Batches++
	}
	return n, err
}

// StableTuples: a counter passes its input's tuples through untouched.
func (c *CountedOp) StableTuples() bool { return Stable(c.In) }

// Close closes the input.
func (c *CountedOp) Close() error { return c.In.Close() }
