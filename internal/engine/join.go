package engine

import (
	"repro/internal/storage"
	"repro/internal/table"
)

// graceMerge is the grace join's merge — Graefe's sort-merge join — over the
// key-sorted batch streams of its two inputs, emitting column batches. Rows
// come out left-major, each left row paired with the right rows of its key
// in right-sorted order, so the output is ordered on the join key: the
// order that "favours grouping and thus our operator" (§V.B). Keys compare
// cell against cell (ColVec.CompareCell), which equates an int and a float
// of equal value as the hash path's HashOn does.
//
// Each side reads its stream into a batch of its own, which the next refill
// overwrites, so the right rows of the current key are copied into block
// (ColBatch.AppendBatch); the current left row is read only before its side
// advances. The three batches are pull batches: drawn off the free list
// when the merge opens, given back when it closes.
type graceMerge struct {
	l, r    sortedSide
	block   table.ColBatch // the right rows of the current key
	pos     int            // block rows paired with the current left row so far
	inBlock bool
}

// sortedSide is one input of the merge: its sorted stream, its key columns,
// the batch last read from the stream and the current row in it.
type sortedSide struct {
	it   *storage.SortedBatches
	keys []int
	b    table.ColBatch
	i    int
	ok   bool
}

// advance moves the side to its stream's next row, refilling its batch
// when the batch is used up.
func (s *sortedSide) advance() error {
	if s.i++; s.i < s.b.N {
		return nil
	}
	n, err := s.it.NextColBatch(&s.b)
	s.i, s.ok = 0, n > 0
	return err
}

// cmpKeys orders a's row ai on its key columns against b's row bi on b's.
func cmpKeys(a *table.ColBatch, ai int, ak []int, b *table.ColBatch, bi int, bk []int) int {
	for k, c := range ak {
		if d := a.Cols[c].CompareCell(ai, &b.Cols[bk[k]], bi); d != 0 {
			return d
		}
	}
	return 0
}

// next fills dst, under the schema out, with up to BatchSize joined rows.
func (m *graceMerge) next(dst *table.ColBatch, out *table.Schema) (int, error) {
	dst.Reset(out)
	l, r := &m.l, &m.r
	for dst.N < BatchSize {
		if m.inBlock {
			if m.pos < m.block.N {
				m.emit(dst)
				continue
			}
			// The left row has met the whole block; a left successor with
			// the same key meets it again.
			if err := l.advance(); err != nil {
				return 0, err
			}
			if l.ok && cmpKeys(&l.b, l.i, l.keys, &m.block, 0, r.keys) == 0 {
				m.pos = 0
				continue
			}
			m.inBlock = false
		}
		if !l.ok || !r.ok {
			break
		}
		var err error
		switch c := cmpKeys(&l.b, l.i, l.keys, &r.b, r.i, r.keys); {
		case c < 0:
			err = l.advance()
		case c > 0:
			err = r.advance()
		default:
			// Copy the right rows equal to the left row's key, batch piece
			// by batch piece.
			m.block.Reset(m.block.Schema)
			for err == nil && r.ok && cmpKeys(&l.b, l.i, l.keys, &r.b, r.i, r.keys) == 0 {
				j := r.i + 1
				for j < r.b.N && cmpKeys(&l.b, l.i, l.keys, &r.b, j, r.keys) == 0 {
					j++
				}
				m.block.AppendBatch(&r.b, r.i, j)
				r.i = j - 1
				err = r.advance()
			}
			m.pos, m.inBlock = 0, true
		}
		if err != nil {
			return 0, err
		}
	}
	return dst.N, nil
}

// emit appends the current left row paired with block row pos.
func (m *graceMerge) emit(dst *table.ColBatch) {
	lw := len(m.l.b.Cols)
	for c := range m.l.b.Cols {
		dst.Cols[c].AppendCell(dst.N, &m.l.b.Cols[c], m.l.i)
	}
	for c := range m.block.Cols {
		dst.Cols[lw+c].AppendCell(dst.N, &m.block.Cols[c], m.pos)
	}
	dst.N++
	m.pos++
}

// close releases both sorted streams, removing their spill runs, and gives
// the merge's batches back.
func (m *graceMerge) close() error {
	recyclePull(&m.l.b)
	recyclePull(&m.r.b)
	recyclePull(&m.block)
	return firstErr(m.l.it.Close(), m.r.it.Close())
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
