package conf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/pool"
	"repro/internal/signature"
	"repro/internal/table"
)

// streamOf wraps rel as a streamed source: a scan of it drained through
// engine.StreamCtx on the requested tier, so the operator sees borrowed
// column batches (or borrowed tuple batches) and never the relation.
func streamOf(ctx context.Context, rel *table.Relation, rowExec bool) *Source {
	return NewSource(rel.Schema, func(sink engine.Sink) error {
		columnar, err := engine.StreamCtx(ctx, engine.NewMemScan(rel), rowExec, sink)
		if err == nil && columnar == rowExec {
			err = fmt.Errorf("stream ran columnar=%v with rowExec=%v", columnar, rowExec)
		}
		return err
	})
}

// TestStreamedSortScanIdentity: the operator fed from an operator stream —
// column batches or tuple batches, some straddling a run boundary — returns
// the rows, the confidences to the bit, and the Stats (scans, sorts, spilled
// runs and bytes, input tuples) it returns when fed the materialized
// relation, serially and partition-parallel, unspilled and spilled.
func TestStreamedSortScanIdentity(t *testing.T) {
	rel, _ := productRel(rand.New(rand.NewSource(5)), 25, 20, 40)
	empty := table.NewRelation(rel.Schema)
	step := signature.NewStar(signature.Table("S"))
	ctx := context.Background()
	for _, in := range []*table.Relation{rel, empty} {
		for _, budget := range []int{0, 2500} {
			for _, workers := range []int{1, 2, 4} {
				opts := Options{SortBudget: budget, TmpDir: t.TempDir(), Pool: pool.New(workers)}
				want, wantStats, err := ComputeStats(in, productSig(), opts)
				if err != nil {
					t.Fatal(err)
				}
				var wantAgg Stats
				wantStep, wantRep, err := AggregateStats(in, step, opts, &wantAgg)
				if err != nil {
					t.Fatal(err)
				}
				if spilled := wantStats.SpilledRuns > 0; spilled != (budget > 0 && in.Len() > budget) {
					t.Fatalf("budget %d, %d rows: %d spilled runs", budget, in.Len(), wantStats.SpilledRuns)
				}
				for _, rowExec := range []bool{false, true} {
					label := fmt.Sprintf("rows=%d budget=%d workers=%d rowExec=%v", in.Len(), budget, workers, rowExec)
					got, stats, err := ComputeFrom(streamOf(ctx, in, rowExec), productSig(), opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					mustEqualRelations(t, got, want, workers)
					if fmt.Sprint(*stats) != fmt.Sprint(*wantStats) {
						t.Errorf("%s: stats %+v, want %+v", label, *stats, *wantStats)
					}
					if stats.InputTuples != int64(in.Len()) {
						t.Errorf("%s: InputTuples %d, want %d", label, stats.InputTuples, in.Len())
					}
					var agg Stats
					src := streamOf(ctx, in, rowExec)
					out, rep, err := AggregateFrom(src, step, opts, &agg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					gotStep, err := out.Relation(ctx)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualRelations(t, gotStep, wantStep, workers)
					if rep != wantRep || fmt.Sprint(agg) != fmt.Sprint(wantAgg) || src.Rows() != int64(in.Len()) {
						t.Errorf("%s: step rep %s stats %+v rows %d, want %s %+v %d", label, rep, agg, src.Rows(), wantRep, wantAgg, in.Len())
					}
				}
			}
		}
	}
}

// cancelAfter cancels a context once n batches — of columns or of tuples —
// have gone through it.
type cancelAfter struct {
	engine.Sink
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) AddBatch(b *table.ColBatch) error {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Sink.AddBatch(b)
}

func (c *cancelAfter) AddRows(rows []table.Tuple) error {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Sink.AddRows(rows)
}

// TestStreamedScanCancelledMidFeed: a context cancelled while the stream is
// still feeding run generation — after runs were already spilled, serially
// and into per-partition sorters — aborts the operator with the context's
// error and leaves no spill file behind.
func TestStreamedScanCancelledMidFeed(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(11)), 3000, 4)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		src := NewSource(rel.Schema, func(sink engine.Sink) error {
			_, err := engine.StreamCtx(ctx, engine.NewMemScan(rel), false, &cancelAfter{Sink: sink, n: 6, cancel: cancel})
			return err
		})
		_, _, err := ComputeFrom(src, twoSourceSig(), Options{SortBudget: 100, TmpDir: dir, Pool: pool.New(workers), Ctx: ctx})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("workers=%d: %d spill files left after the cancelled feed", workers, len(entries))
		}
	}
}

// TestStreamedSourceIsOneShot: a streamed source feeds once; a second
// consumer is an error, not a silent empty input — unless the source was
// materialized, which then stands in for the stream.
func TestStreamedSourceIsOneShot(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(3)), 50, 3)
	ctx := context.Background()
	src := streamOf(ctx, rel, false)
	if _, _, err := ComputeFrom(src, twoSourceSig(), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ComputeFrom(src, twoSourceSig(), Options{}); err == nil {
		t.Fatal("second consumption of a streamed source succeeded")
	}
	src = streamOf(ctx, rel, false)
	got, err := src.Relation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRelations(t, got, rel, 1)
	for i := 0; i < 2; i++ {
		if _, _, err := ComputeFrom(src, twoSourceSig(), Options{}); err != nil {
			t.Fatalf("consumption %d of a materialized source: %v", i, err)
		}
	}
}
