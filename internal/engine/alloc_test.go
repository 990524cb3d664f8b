package engine

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/fault"
	"repro/internal/prob"
	"repro/internal/table"
)

// Allocation-regression guards for the hot paths the batched executor and
// the hash-keyed containers are supposed to keep allocation-free: probing a
// built hash join, and the grace join's sort and merge. The budgets
// are deliberately loose where they allow anything at all (they guard
// against a per-row regression, not against single allocations).

const allocRows = 1024

func allocRel(rows, distinct int) *table.Relation {
	sch := table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("v", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	for i := 0; i < rows; i++ {
		rel.MustAppend(table.Tuple{
			table.Int(int64(i % distinct)),
			table.Int(int64(i)),
			table.VarValue(prob.Var(i + 1)), table.Float(0.5),
		})
	}
	return rel
}

// strKeyRel is allocRel keyed on distinct strings.
func strKeyRel(rows int) *table.Relation {
	rel := table.NewRelation(table.NewSchema(table.DataCol("k", table.KindString), table.DataCol("v", table.KindInt)))
	for i := 0; i < rows; i++ {
		rel.MustAppend(table.Tuple{table.Str(fmt.Sprintf("key-%05d", i)), table.Int(int64(i))})
	}
	return rel
}

// TestHashJoinProbeAllocs pins the probe side of a built hash join: once
// Open has built the table and the output batch is warm, streaming every
// probe row through NextColBatch allocates nothing — over an int key, and
// over a string key fed as raw bytes (a bytesScan), where key equality and
// the right cells' gather must work on the bytes in place.
func TestHashJoinProbeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		left, right ColOperator
	}{
		{"int-key", memScan(allocRel(allocRows, allocRows)), memScan(allocRel(allocRows, allocRows))},
		{"flat-string-key", memScan(strKeyRel(allocRows)), &bytesScan{Rel: strKeyRel(allocRows)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := hashJoin(t, tc.left, tc.right, []int{0}, []int{0})
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			b := table.NewColBatch(j.Schema())
			probe := func() {
				tc.left.Open() // rewind the probe side; the built table stays
				j.n, j.i, j.cand = 0, 0, 0
				rows := 0
				for {
					n, err := j.NextColBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					rows += n
				}
				if rows != allocRows {
					t.Fatalf("probe produced %d rows, want %d", rows, allocRows)
				}
			}
			probe() // warm up the output batch and the hash buffer
			if avg := testing.AllocsPerRun(10, probe); avg != 0 {
				t.Fatalf("hash join probe allocated %.1f times per %d-row probe pass, want 0", avg, allocRows)
			}
		})
	}
}

// TestHashJoinBuildAllocs pins the build side: it allocates per BatchSize
// chunk (the chunk's columns and hashes) and once for the index, never per
// row. Doubling the build rows from 4 to 8 chunks at most doubles the
// allocations, plus a constant, and adds at most 16 per added chunk (7
// measured, 11 under the race detector) where one per row would add 4096.
func TestHashJoinBuildAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		j := hashJoin(t, memScan(allocRel(1, 1)), memScan(allocRel(rows, rows/4)), []int{0}, []int{0})
		return testing.AllocsPerRun(5, func() {
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			j.Close()
		})
	}
	small, large := allocs(4*BatchSize), allocs(8*BatchSize)
	t.Logf("%.0f allocations to build %d rows, %.0f to build %d", small, 4*BatchSize, large, 8*BatchSize)
	if large > 2*small+8 {
		t.Fatalf("doubling the build rows took %.0f allocations from %.0f, want at most %.0f", large, small, 2*small+8)
	}
	if large-small > 16*4 {
		t.Fatalf("4 more chunks of build rows added %.0f allocations, want at most 16 a chunk", large-small)
	}
}

// TestGraceJoinAllocs pins the grace join's cold path. A governor of 128
// bytes a row denies the build (charged 160 bytes a two-column row) but
// admits both key sorts, so the join sorts its int-column inputs in memory
// and merges them into the output batches. That allocates per sort and per
// buffer doubling, never per row: doubling both inputs adds at most a few
// allocations (168 to 187 measured, 1024 to 2048 rows a side). The keys are
// unique, so the abandoned build allocates no per-key group either.
func TestGraceJoinAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		shuffled := func(seed int64) *table.Relation {
			rel := table.NewRelation(table.NewSchema(table.DataCol("k", table.KindInt), table.DataCol("v", table.KindInt)))
			for i, k := range rand.New(rand.NewSource(seed)).Perm(rows) {
				rel.MustAppend(table.Tuple{table.Int(int64(k)), table.Int(int64(i))})
			}
			return rel
		}
		j := hashJoin(t, memScan(shuffled(1)), memScan(shuffled(2)), []int{0}, []int{0})
		j.TmpDir = t.TempDir()
		b := table.NewColBatch(j.Schema())
		run := func() {
			j.Mem = fault.NewGovernor(int64(rows)*128, nil)
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			if !j.GraceMode() {
				t.Fatal("the governed join must have entered grace mode")
			}
			if spilled, err := os.ReadDir(j.TmpDir); err != nil || len(spilled) != 0 {
				t.Fatalf("%d-row grace join spilled: %v (%v)", rows, spilled, err)
			}
			n := 0
			for {
				k, err := j.NextColBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					break
				}
				n += k
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if n != rows {
				t.Fatalf("grace join produced %d rows, want %d", n, rows)
			}
		}
		run() // warm the output batch
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(allocRows), allocs(2*allocRows)
	t.Logf("%.0f allocations over %d rows a side, %.0f over %d", small, allocRows, large, 2*allocRows)
	if large-small > 32 {
		t.Fatalf("doubling both inputs added %.0f allocations, want at most 32", large-small)
	}
}

// TestCollectBatchIdentity pins the drain: StreamCtx hands a projected
// join's batches, its probe side selected in the scan, to the sink, which holds exactly the rows of a
// nested-loop reference, in probe order; countCols drains the same count.
func TestCollectBatchIdentity(t *testing.T) {
	rel := allocRel(512, 61)
	build := func() ColOperator {
		probe := withPreds(memScan(rel), ColPred{Col: 1, Op: OpLt, Val: table.Int(400)})
		j := hashJoin(t, probe, memScan(rel), []int{0}, []int{0})
		p, err := NewColumnProject(j, []string{"k", "v"})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := &table.Relation{}
	for _, l := range rel.Rows {
		for _, r := range rel.Rows {
			if l[1].I < 400 && l[0] == r[0] {
				want.Rows = append(want.Rows, table.Tuple{l[0], l[1]})
			}
		}
	}
	got := collect(t, build())
	mustSameRelations(t, "drain", got, want)
	if n, err := countCols(build()); err != nil || n != int64(want.Len()) {
		t.Fatalf("countCols = %d, %v; want %d", n, err, want.Len())
	}
}

// TestHashJoinAllocs pins a whole hash join's Open, drain and Close once
// the free list is warm: the build's chunk vectors, hashes and index, and
// the probe batch and hashes, are drawn off the list and given back, so a
// cycle allocates only the few headers that hold them (the build, its chunk
// and hash lists, the batches' column slices), per chunk and per join —
// never per row, and no vector storage at all.
func TestHashJoinAllocs(t *testing.T) {
	j := hashJoin(t, memScan(allocRel(4*BatchSize, 512)), memScan(allocRel(2*BatchSize, 512)), []int{0}, []int{0})
	b := drawPull(j.Schema())
	defer recyclePull(b)
	cycle := func() {
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			n, err := j.NextColBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			rows += n
		}
		j.Close()
		if rows != 4*BatchSize*4 {
			t.Fatalf("the join produced %d rows, want %d", rows, 4*BatchSize*4)
		}
	}
	cycle() // warm the free list
	avg := testing.AllocsPerRun(10, cycle)
	t.Logf("%.1f allocations per join cycle", avg)
	if avg > 24 {
		t.Fatalf("a warm hash join cycle allocated %.1f times, want ≤ 24", avg)
	}
}
