package plan_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/engine"
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
			for i := range v.Bytes[:cap(v.Bytes)] {
				v.Bytes[:cap(v.Bytes)][i] = 0xff
			}
			for i := range v.Offs[:cap(v.Offs)] {
				v.Offs[:cap(v.Offs)][i] = -1
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

// TestIdlePeakStopsGrowing: what a warm run gives back to the free list is
// what its next repetition draws, so the list's idle peak stops growing
// after the first repetition — for q18/eager at Workers 1 and 4, and for a
// selective scan of a short chunk, whose selection is drawn for a whole
// batch however few rows the chunk holds. A holder that drew nothing when the list had no fit,
// and grew a buffer short of its draw's size, gave such a buffer back
// every run, and no draw took it again.
func TestIdlePeakStopsGrowing(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.005, Seed: 1}).Catalog()
	e := tpch.Catalog()["18"]
	query := func(workers int) func() {
		return func() {
			spec := plan.Spec{Style: plan.Eager, Workers: workers}
			if _, err := plan.Run(cat, e.Q.Clone(), tpch.FDsFor(e), spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	schema := table.NewSchema(table.DataCol("k", table.KindInt))
	small := table.NewColBatch(schema) // a base table of one short chunk
	for i := range 100 {
		small.AppendRow(table.Tuple{table.Int(int64(i))})
	}
	chunks := []*table.ColBatch{small}
	var taken [][]int32 // what the scan's selection could fit: taken before its first run
	for {
		s, ok := freelist.Int32s.Largest(new(freelist.Lease))
		if !ok {
			break
		}
		taken = append(taken, s)
	}
	scan := func() {
		s := &engine.ColChunkScan{S: schema, Chunks: chunks,
			Preds: []engine.ColPred{{Col: 0, Op: engine.OpLt, Val: table.Int(9)}}}
		sink := engine.NewRelationSink(schema)
		if err := engine.StreamCtx(nil, s, sink); err != nil {
			t.Fatal(err)
		}
		if sink.Rel.Len() != 9 {
			t.Fatalf("the selective scan kept %d rows, want 9", sink.Rel.Len())
		}
	}
	for _, c := range []struct {
		name string
		run  func()
	}{{"selective-scan", scan}, {"q18/eager/workers=1", query(1)}, {"q18/eager/workers=4", query(4)}} {
		c.run() // warming up
		c.run() // a warm run
		c.run() // its first repetition
		peak := freelist.Read().IdlePeakBytes
		for i := range 4 {
			c.run()
			if got := freelist.Read().IdlePeakBytes; got != peak {
				t.Errorf("%s: repetition %d of a warm run raised the free list's idle peak from %d to %d bytes", c.name, i+2, peak, got)
				peak = got
			}
		}
	}
	runtime.KeepAlive(taken)
}
