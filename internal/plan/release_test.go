package plan_test

import (
	"math"
	"testing"

	"repro/internal/freelist"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/tpch"
)

// scribbleIdle draws every idle column vector off the free list and
// overwrites its storage: a result that still read a released pass output
// would show the scribbles. What it draws stays drawn.
func scribbleIdle() {
	var ls freelist.Lease
	kinds := table.NewSchema(table.DataCol("i", table.KindInt), table.DataCol("f", table.KindFloat),
		table.DataCol("s", table.KindString), table.DataCol("b", table.KindBool))
	for {
		b := table.NewColBatch(kinds)
		b.Draw(&ls, 0)
		if b.MemSize() == 0 {
			return
		}
		for k := range b.Cols {
			v := &b.Cols[k]
			for i := range v.Ints[:cap(v.Ints)] {
				v.Ints[:cap(v.Ints)][i] = -1
			}
			for i := range v.Floats[:cap(v.Floats)] {
				v.Floats[:cap(v.Floats)][i] = math.NaN()
			}
			for i := range v.Strs[:cap(v.Strs)] {
				v.Strs[:cap(v.Strs)][i] = "scribbled"
			}
			for i := range v.Bytes[:cap(v.Bytes)] {
				v.Bytes[:cap(v.Bytes)][i] = 0xff
			}
		}
	}
}

// TestRunReleasesPassOutputs: a run's sort+scan pass outputs go back to the
// free list once Run has materialized its rows, and only then — the rows it
// returns read none of them, so overwriting every idle vector after Run
// leaves them as they were — and a second run draws what the first gave
// back instead of growing it anew.
func TestRunReleasesPassOutputs(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.005, Seed: 1}).Catalog()
	e := tpch.Catalog()["18"]
	for _, style := range []plan.Style{plan.Eager, plan.SafeMystiQ} {
		for _, workers := range []int{1, 4} {
			spec := plan.Spec{Style: style, Workers: workers}
			run := func() (*plan.Result, int64) {
				before := freelist.Read().FreshBytes
				res, err := plan.Run(cat, e.Q.Clone(), tpch.FDsFor(e), spec)
				if err != nil {
					t.Fatal(err)
				}
				return res, freelist.Read().FreshBytes - before
			}
			scribbleIdle()
			res, first := run()
			want := make([]string, res.Rows.Len())
			for i, row := range res.Rows.Rows {
				want[i] = row.String()
			}
			scribbleIdle()
			for i, row := range res.Rows.Rows {
				if got := row.String(); got != want[i] {
					t.Fatalf("%v/workers=%d: row %d reads %s after the free list was overwritten, was %s", style, workers, i, got, want[i])
				}
			}
			if len(want) == 0 {
				t.Fatalf("%v/workers=%d: no answers", style, workers)
			}
			run() // refill the lists the scribbling emptied
			_, second := run()
			t.Logf("%v/workers=%d: fresh bytes %d on the first run, %d on a warm one", style, workers, first, second)
			if second*10 > first {
				t.Errorf("%v/workers=%d: a warm run grew %d fresh bytes, over a tenth of the first run's %d", style, workers, second, first)
			}
		}
	}
}
