package engine

import "repro/internal/table"

// OpStats accumulates what flowed through one ColCounted wrapper. The fields
// are plain int64s: every pipeline in this engine is pulled from a single
// goroutine (joins drain their children serially in Open), so no atomics are
// needed. Read the fields only after the pipeline has been drained.
type OpStats struct {
	Rows    int64 // live rows that passed through
	Batches int64 // NextColBatch calls that returned at least one live row
}

// ColCounted is a transparent pass-through operator that counts the live
// rows and batches flowing out of its input into an OpStats — two counter
// bumps per batch, cheap enough to leave in traced plans.
type ColCounted struct {
	In ColOperator
	S  *OpStats
}

// Schema returns the input's schema.
func (c *ColCounted) Schema() *table.Schema { return c.In.Schema() }

// Open opens the input.
func (c *ColCounted) Open() error { return c.In.Open() }

// NextColBatch counts and forwards one batch.
func (c *ColCounted) NextColBatch(dst *table.ColBatch) (int, error) {
	n, err := c.In.NextColBatch(dst)
	if n > 0 && err == nil {
		c.S.Rows += int64(n)
		c.S.Batches++
	}
	return n, err
}

// Close closes the input.
func (c *ColCounted) Close() error { return c.In.Close() }
