package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/table"
)

// randRel builds a relation with one int key column (small domain, so joins
// produce matches) and one int payload column.
func randRel(rng *rand.Rand, rows, keyDomain int) *table.Relation {
	rel := table.NewRelation(table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("v", table.KindInt),
	))
	for i := 0; i < rows; i++ {
		rel.MustAppend(table.Tuple{
			table.Int(int64(rng.Intn(keyDomain))),
			table.Int(int64(i)),
		})
	}
	return rel
}

// TestCollectCtxCancellation: a cancelled context aborts a drain at its
// first batch boundary, and the sink sees nothing.
func TestCollectCtxCancellation(t *testing.T) {
	rel := randRel(rand.New(rand.NewSource(1)), 10, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := NewRelationSink(rel.Schema)
	if err := StreamCtx(ctx, memScan(rel), sink); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if sink.Rel.Len() != 0 {
		t.Fatalf("a cancelled drain delivered %d rows", sink.Rel.Len())
	}
}

// TestPoolDoErrorIsLowestIndex: pool.Do reports the error of the lowest
// erroring index regardless of worker count.
func TestPoolDoErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := pool.New(workers)
		err := p.Do(context.Background(), 100, func(i int) error {
			if i >= 37 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 37 failed" {
			t.Fatalf("workers=%d: got %v, want task 37 failed", workers, err)
		}
	}
}

// nullKeyRel is randRel with every nullEvery-th key NULL.
func nullKeyRel(rng *rand.Rand, rows, keyDomain, nullEvery int) *table.Relation {
	rel := randRel(rng, rows, keyDomain)
	for i := 0; i < rows; i += nullEvery {
		rel.Rows[i][0] = table.Null()
	}
	return rel
}

// TestJoinFamilyIdentity is the hash join's identity table: the join —
// ungoverned, governed without pressure, governed under pressure — over
// inputs with repeated keys, NULL keys, an empty side, and sizes on both
// sides of pool.ParallelMinRows (where a consuming sort+scan pass starts
// partitioning). A join that stays on the hash path emits the nested-loop
// reference rows in the reference order (probe rows in scan order, their
// matches in build order); a grace join emits them in the grace order
// (graceWant: both sides stably sorted on the key, paired left-major).
// Grace mode is entered exactly where the governor denies a non-empty
// build. A recycled build — drawn off the free list just after a larger
// build over other keys, NULLs among them, gave its buffers back — joins
// exactly like a fresh one.
func TestJoinFamilyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	empty := randRel(rng, 0, 1)
	inputs := []struct {
		name        string
		left, right *table.Relation
	}{
		{"repeated-keys/below-min", randRel(rng, 600, 90), randRel(rng, 1100, 90)},
		{"repeated-keys/above-min", randRel(rng, 3*pool.ParallelMinRows, 1500), randRel(rng, 2*pool.ParallelMinRows, 1500)},
		{"null-keys", nullKeyRel(rng, 1500, 60, 7), nullKeyRel(rng, 1300, 60, 5)},
		{"empty-left", empty, randRel(rng, 1100, 20)},
		{"empty-right", randRel(rng, 400, 20), empty},
	}
	keys := []int{0}
	// tight denies the first build batch of every non-empty right side here
	// (≥ 1024 two-column rows reserve three joinMemChunks at once) while
	// leaving the grace sorters two chunks to buffer runs in.
	const tight = 2 * joinMemChunk
	sameOrder := func(t *testing.T, got, want *table.Relation) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%d rows, want %d", got.Len(), want.Len())
		}
		for i := range want.Rows {
			if got.Rows[i].String() != want.Rows[i].String() {
				t.Fatalf("row %d = %s, want %s", i, got.Rows[i], want.Rows[i])
			}
		}
	}
	for _, in := range inputs {
		want := &table.Relation{}
		for _, l := range in.left.Rows {
			for _, r := range in.right.Rows {
				if table.EqualOn2(l, keys, r, keys) {
					want.Rows = append(want.Rows, append(slices.Clone(l), r...))
				}
			}
		}
		if want.Len() == 0 && in.left.Len() > 0 && in.right.Len() > 0 {
			t.Fatalf("%s: reference join produced no rows", in.name)
		}
		for _, gov := range []struct {
			name  string
			limit int64 // 0 = ungoverned
		}{{"ungoverned", 0}, {"recycled", 0}, {"roomy", 1 << 30}, {"tight", tight}} {
			t.Run(in.name+"/hash/columnar/"+gov.name, func(t *testing.T) {
				if gov.name == "recycled" {
					dirty := nullKeyRel(rng, 5*BatchSize, 3000, 50)
					collect(t, hashJoin(t, memScan(dirty), memScan(dirty), keys, keys))
				}
				j := hashJoin(t, memScan(in.left), memScan(in.right), keys, keys)
				if gov.limit > 0 {
					j.Mem = fault.NewGovernor(gov.limit, nil)
					j.SortBudget = 1024
					j.TmpDir = t.TempDir()
				}
				got := collect(t, j)
				wantGrace := gov.name == "tight" && in.right.Len() > 0
				if j.GraceMode() != wantGrace {
					t.Fatalf("GraceMode = %v, want %v", j.GraceMode(), wantGrace)
				}
				if wantGrace {
					sameOrder(t, got, graceWant(in.left, in.right, keys, keys))
				} else {
					sameOrder(t, got, want)
				}
				if used := j.Mem.Used(); used != 0 {
					t.Fatalf("governor left %d bytes reserved", used)
				}
			})
		}
	}
}
