// Fixture for the batchalias analyzer: retaining tuples handed out by
// NextBatch-shaped calls without a clone.
package batchalias

import "repro/internal/table"

type op interface {
	NextBatch(dst []table.Tuple) (int, error)
}

type sink struct {
	rows []table.Tuple
	cur  table.Tuple
}

func retainRange(o op) ([]table.Tuple, error) {
	buf := make([]table.Tuple, 64)
	var out []table.Tuple
	for {
		n, err := o.NextBatch(buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for _, t := range buf[:n] {
			out = append(out, t) // want `appended without a clone`
		}
	}
}

func retainIndexed(o op, s *sink) error {
	buf := make([]table.Tuple, 64)
	n, err := o.NextBatch(buf)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		s.rows = append(s.rows, buf[i]) // want `appended without a clone`
	}
	s.cur = buf[0] // want `stored in a field without a clone`
	return nil
}

func retainAlias(o op, s *sink) error {
	buf := make([]table.Tuple, 64)
	if _, err := o.NextBatch(buf); err != nil {
		return err
	}
	t := buf[0]
	s.cur = t // want `stored in a field without a clone`
	return nil
}

func retainWholesale(o op) []table.Tuple {
	buf := make([]table.Tuple, 64)
	n, _ := o.NextBatch(buf)
	var out []table.Tuple
	out = append(out, buf[:n]...) // want `appended wholesale`
	return out
}

func cloneThroughSlab(o op) ([]table.Tuple, error) {
	buf := make([]table.Tuple, 64)
	var slab table.Slab
	var out []table.Tuple
	for {
		n, err := o.NextBatch(buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for _, t := range buf[:n] {
			out = append(out, slab.Clone(t)) // ok: slab-cloned
		}
	}
}

func cloneThroughMethod(o op) ([]table.Tuple, error) {
	buf := make([]table.Tuple, 64)
	var out []table.Tuple
	n, err := o.NextBatch(buf)
	for i := 0; i < n; i++ {
		out = append(out, buf[i].Clone()) // ok: cloned
	}
	return out, err
}

func fillCallerBatch(o op, dst []table.Tuple) (int, error) {
	buf := make([]table.Tuple, len(dst))
	n, err := o.NextBatch(buf)
	for i := 0; i < n; i++ {
		dst[i] = buf[i] // ok: dst is the caller's batch parameter
	}
	return n, err
}

type cursor struct{ cur table.Tuple }

func (c *cursor) advanceAllowed(o op) error {
	buf := make([]table.Tuple, 8)
	if _, err := o.NextBatch(buf); err != nil {
		return err
	}
	//sproutvet:allow batchalias cursor only lives until the next NextBatch call on o
	c.cur = buf[0]
	return nil
}

// --- Cursor.Next hands out one tuple of a reused batch at a time.

type Cursor struct {
	buf []table.Tuple
	pos int
}

func (c *Cursor) Next() (table.Tuple, bool, error) {
	t := c.buf[c.pos]
	c.pos++
	return t, true, nil
}

func (c *Cursor) Keep(t table.Tuple) table.Tuple { return t.Clone() }

func cursorRetain(c *Cursor, s *sink) error {
	t, ok, err := c.Next()
	if err != nil || !ok {
		return err
	}
	s.rows = append(s.rows, t) // want `appended without a clone`
	s.cur = c.Keep(t)          // ok: kept through the cursor
	return nil
}

// --- ColBatch half of the contract: NextColBatch refills reused column
// storage, so slices and ColVec headers read out of the batch must not be
// retained.

type colOp interface {
	NextColBatch(dst *table.ColBatch) (int, error)
}

type colSink struct {
	ints   []int64
	vec    table.ColVec
	slices [][]int64
}

func colRetainField(o colOp, s *colSink) error {
	b := &table.ColBatch{}
	if _, err := o.NextColBatch(b); err != nil {
		return err
	}
	s.ints = b.Cols[0].Ints // want `stored in a field without a copy`
	s.vec = b.Cols[0]       // want `stored in a field without a copy`
	return nil
}

func colRetainAlias(o colOp, s *colSink) error {
	b := &table.ColBatch{}
	if _, err := o.NextColBatch(b); err != nil {
		return err
	}
	sel := b.Sel
	s.slices = append(s.slices, nil)
	s.slices[0] = nil
	_ = sel
	s.ints = nil
	col := b.Cols[0].Ints
	s.ints = col // want `stored in a field without a copy`
	return nil
}

func colRetainAppend(o colOp, s *colSink) error {
	b := &table.ColBatch{}
	if _, err := o.NextColBatch(b); err != nil {
		return err
	}
	s.slices = append(s.slices, b.Cols[0].Ints) // want `appended without a copy`
	return nil
}

func colCopyOut(o colOp) ([]int64, error) {
	b := &table.ColBatch{}
	var out []int64
	for {
		n, err := o.NextColBatch(b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, b.Cols[0].Ints...) // ok: the cells are copied out
	}
}

type colOperator struct {
	in  colOp
	buf *table.ColBatch
}

func (c *colOperator) NextColBatch(dst *table.ColBatch) (int, error) {
	n, err := c.in.NextColBatch(c.buf)
	if err != nil || n == 0 {
		return 0, err
	}
	// Filling the caller's batch is the protocol, not retention.
	dst.Cols[0] = c.buf.Cols[0]
	dst.Sel = c.buf.Sel
	dst.N = c.buf.N
	return n, nil
}

func colHashHandoff(o colOp, hashes []uint64) ([]uint64, error) {
	b := &table.ColBatch{}
	if _, err := o.NextColBatch(b); err != nil {
		return nil, err
	}
	hashes = b.HashInto([]int{0}, hashes) // ok: call results are hand-offs
	return hashes, nil
}

type colCursor struct{ sel []int32 }

func (c *colCursor) allowedRetain(o colOp) error {
	b := &table.ColBatch{}
	if _, err := o.NextColBatch(b); err != nil {
		return err
	}
	//sproutvet:allow batchalias selection only lives until the next NextColBatch on o
	c.sel = b.Sel
	return nil
}

// --- The receiving end of a drain: the batch a sink's AddBatch is handed is
// borrowed until the call returns. A copying consumer (the external sorter)
// is the protocol; keeping the argument's column storage is not.

type batchSorter struct {
	ints []int64
	vec  table.ColVec
}

func (s *batchSorter) AddBatch(b *table.ColBatch) error {
	s.ints = append(s.ints, b.Cols[0].Ints...) // ok: the cells are copied out
	s.vec = b.Cols[1]                          // want `stored in a field without a copy`
	return nil
}

func feedSorter(o colOp, s *batchSorter, keep *colSink) error {
	b := &table.ColBatch{}
	for {
		n, err := o.NextColBatch(b)
		if err != nil || n == 0 {
			return err
		}
		if err := s.AddBatch(b); err != nil { // ok: AddBatch copies what it keeps
			return err
		}
		keep.ints = b.Cols[0].Ints // want `stored in a field without a copy`
	}
}
