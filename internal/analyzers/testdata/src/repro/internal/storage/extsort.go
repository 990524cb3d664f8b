package storage

import "repro/internal/table"

// TupleIterator stubs a comparator sort's sorted stream for the batchalias
// fixtures: Next lends its tuple until the next Next.
type TupleIterator interface {
	Next() (table.Tuple, bool, error)
	Close() error
}

// SortedBatches stubs a key sort's sorted stream: NextColBatch refills the
// caller's batch, whose column storage is valid until the next refill.
type SortedBatches struct{}

func (it *SortedBatches) NextColBatch(dst *table.ColBatch) (int, error) { return 0, nil }

func (it *SortedBatches) Close() error { return nil }
