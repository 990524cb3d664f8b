package table

import (
	"sync"
	"testing"

	"repro/internal/freelist"
)

// TestScopeConcurrent: the workers of a partitioned pass draw their output
// chunks from one Scope at once (run under -race -cpu 1,4 in CI). Every
// chunk holds arrays of its own, Release gives each back to the free list
// once, and a second Release gives back nothing; a nil Scope's chunks are
// allocated and owned by nobody.
func TestScopeConcurrent(t *testing.T) {
	schema := NewSchema(DataCol("i", KindInt), DataCol("f", KindFloat))
	const workers, per = 4, 20
	for _, sc := range []*Scope{{}, nil} {
		chunks := make([][]*ColBatch, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range per {
					c := sc.NewChunk(schema)
					c.Reserve(BatchSize)
					for r := range BatchSize {
						c.Cols[0].AppendValue(r, Int(int64(w*per+i)))
						c.Cols[1].AppendFloat(float64(w))
					}
					c.N = BatchSize
					chunks[w] = append(chunks[w], c)
				}
			}()
		}
		wg.Wait()
		owner := make(map[*int64]bool)
		for w, cs := range chunks {
			for i, c := range cs {
				if c.Cols[0].Ints[0] != int64(w*per+i) || c.Cols[0].Ints[BatchSize-1] != int64(w*per+i) || c.Cols[1].Floats[BatchSize-1] != float64(w) {
					t.Fatalf("worker %d's chunk %d holds another chunk's rows", w, i)
				}
				if owner[&c.Cols[0].Ints[0]] {
					t.Fatal("two chunks share a backing array")
				}
				owner[&c.Cols[0].Ints[0]] = true
			}
		}
		sc.Release()
		sc.Release()
		var ls freelist.Lease
		idle := make(map[*int64]int)
		var taken []ColVec
		for {
			v, ok := vecLists[KindInt].Largest(&ls)
			if !ok {
				break
			}
			idle[&v.Ints[:1][0]]++
			taken = append(taken, v)
		}
		for _, v := range taken {
			vecLists[KindInt].Put(&ls, v)
		}
		for p := range owner {
			if n := idle[p]; (sc != nil && n != 1) || (sc == nil && n != 0) {
				t.Fatalf("scope %v: a chunk's array is idle %d times after Release", sc != nil, n)
			}
		}
	}
}
