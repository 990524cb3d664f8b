package engine

import (
	"fmt"
	"testing"

	"repro/internal/prob"
	"repro/internal/table"
)

// Allocation-regression guards for the hot paths the batched executor and
// the hash-keyed containers are supposed to keep allocation-free: probing a
// built hash join, and draining batches through the row view. The budgets
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

// TestHashJoinProbeAllocs pins the probe side of a built hash join: once
// Open has built the table and the output batch is warm, streaming every
// probe row through NextColBatch allocates nothing.
func TestHashJoinProbeAllocs(t *testing.T) {
	left := &ColMemScan{Rel: allocRel(allocRows, allocRows)}
	right := &ColMemScan{Rel: allocRel(allocRows, allocRows)}
	j := hashJoin(t, left, right, []int{0}, []int{0})
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	b := table.NewColBatch(j.Schema())
	probe := func() {
		left.Open() // rewind the probe side; the built table stays
		j.n, j.i, j.gpos, j.glen = 0, 0, 0, 0
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
}

// TestCollectBatchIdentity pins that reading a pipeline through its row view
// (ColToRows) yields the rows its column batches carry for every row batch
// size — including 1, the classic tuple-at-a-time pull — and the number of
// rows a filtered, projected join drains to.
func TestCollectBatchIdentity(t *testing.T) {
	rel := allocRel(512, 61)
	build := func() ColOperator {
		j := hashJoin(t, &ColMemScan{Rel: rel}, &ColMemScan{Rel: rel}, []int{0}, []int{0})
		f := &ColFilter{In: j, Preds: []ColPred{{Col: 1, Op: OpLt, Val: table.Int(400)}}}
		p, err := NewColumnProject(f, []string{"k", "v"})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := collect(t, build())
	if ref.Len() == 0 {
		t.Fatal("reference run produced no rows")
	}
	for _, bs := range []int{1, 7, 1024} {
		op := &ColToRows{In: build()}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		buf := make([]table.Tuple, bs)
		var got []table.Tuple
		for {
			n, err := op.NextBatch(buf)
			if err != nil {
				t.Fatalf("batch size %d: %v", bs, err)
			}
			if n == 0 {
				break
			}
			for _, row := range buf[:n] {
				got = append(got, row.Clone())
			}
		}
		op.Close()
		mustSameRelations(t, fmt.Sprintf("batch size %d", bs), &table.Relation{Schema: ref.Schema, Rows: got}, ref)
	}
}
