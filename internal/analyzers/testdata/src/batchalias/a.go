// Fixture for the batchalias analyzer: retaining tuples a sorted stream
// lends, and column storage of reused batches, without a copy.
package batchalias

import (
	"repro/internal/storage"
	"repro/internal/table"
)

type sink struct {
	rows []table.Tuple
	cur  table.Tuple
	byK  map[string]table.Tuple
}

func retainAppended(it storage.TupleIterator) ([]table.Tuple, error) {
	var out []table.Tuple
	for {
		t, ok, err := it.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, t) // want `appended without a clone`
	}
}

func retainInField(it storage.TupleIterator, s *sink) error {
	t, _, err := it.Next()
	s.cur = t // want `stored in a field without a clone`
	return err
}

func retainInElement(it storage.TupleIterator, s *sink) error {
	t, ok, err := it.Next()
	if ok {
		s.byK[t[0].S] = t // want `stored in long-lived storage without a clone`
	}
	return err
}

func cloneOut(it storage.TupleIterator, s *sink) error {
	var slab table.Slab
	for {
		t, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		s.rows = append(s.rows, slab.Clone(t)) // ok: slab-cloned
		s.cur = t.Clone()                      // ok: cloned
	}
}

func copyCells(it storage.TupleIterator, b *table.ColBatch) error {
	t, ok, err := it.Next()
	if ok {
		b.AppendRow(t) // ok: a call hands the tuple off; AppendRow copies its cells
	}
	return err
}

type side struct {
	it storage.TupleIterator
	t  table.Tuple
}

func (s *side) advanceAllowed() error {
	t, _, err := s.it.Next()
	//sproutvet:allow batchalias the current tuple is replaced by the very Next that invalidates it
	s.t = t
	return err
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

// --- A key sort's sorted stream is NextColBatch-shaped: the batch it fills
// is reused by the next refill, so its column slices must not be kept.

type groupScan struct {
	firstV []int64
	v      int64
}

func sortedRetain(it *storage.SortedBatches, g *groupScan) error {
	var b table.ColBatch
	for {
		n, err := it.NextColBatch(&b)
		if err != nil || n == 0 {
			return err
		}
		g.firstV = b.Cols[0].Ints // want `stored in a field without a copy`
	}
}

func sortedCopyCells(it *storage.SortedBatches, g *groupScan) error {
	var b table.ColBatch
	for {
		n, err := it.NextColBatch(&b)
		if err != nil || n == 0 {
			return err
		}
		g.v = b.Cols[0].Ints[n-1] // ok: a cell is copied out
	}
}
