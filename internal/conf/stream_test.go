package conf

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// memScan scans rel's rows as column chunks (FromRelation), the way a base
// table is scanned.
func memScan(rel *table.Relation) engine.ColOperator {
	return &engine.ColChunkScan{S: rel.Schema, Chunks: FromRelation(rel).chunks}
}

// streamOf wraps rel as a streamed source: a scan of it drained through
// engine.StreamCtx, so the operator sees borrowed column batches and never
// the relation.
func streamOf(ctx context.Context, rel *table.Relation) *Source {
	return streamScan(ctx, memScan(rel))
}

// streamScan wraps a scan as a streamed source drained through
// engine.StreamCtx. The scan rewinds on Open, so it can back any number of
// sources, one at a time.
func streamScan(ctx context.Context, scan engine.ColOperator) *Source {
	return NewSource(scan.Schema(), func(sink engine.Sink) error {
		return engine.StreamCtx(ctx, scan, sink)
	})
}

// TestStreamedSortScanIdentity: the operator fed from an operator stream —
// column batches, some straddling a run boundary — returns the rows, the
// confidences to the bit, and the Stats (scans, sorts, spilled runs and
// bytes, input tuples) it returns when fed the materialized relation,
// serially and partition-parallel, unspilled and spilled; and those agree
// with grpSequence, which never crosses a Sink. Besides typed columns, the
// inputs put NULLs in the first rows of the data column (the batches' null
// bitmap).
func TestStreamedSortScanIdentity(t *testing.T) {
	rel, _ := productRel(rand.New(rand.NewSource(5)), 25, 20, 40)
	empty := table.NewRelation(rel.Schema)
	nullsFirst := rekeyed(rel, func(g int) table.Value {
		if g == 3 {
			return table.Null()
		}
		return table.Str(fmt.Sprintf("answer-%03d", g))
	})
	slices.SortStableFunc(nullsFirst.Rows, func(a, b table.Tuple) int { return cmp.Compare(a[0].Kind, b[0].Kind) })
	step := signature.NewStar(signature.Table("S"))
	ctx := context.Background()
	for _, in := range []*table.Relation{rel, empty, nullsFirst} {
		ref, err := grpSequence(in, productSig())
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 2500} {
			for _, workers := range []int{1, 2, 4} {
				opts := Options{SortBudget: budget, TmpDir: t.TempDir(), Pool: pool.New(workers)}
				want, wantStats, err := ComputeStats(in, productSig(), opts)
				if err != nil {
					t.Fatal(err)
				}
				var wantAgg Stats
				wantStep, wantRep, err := aggregateRel(in, step, opts, &wantAgg)
				if err != nil {
					t.Fatal(err)
				}
				if spilled := wantStats.SpilledRuns > 0; spilled != (budget > 0 && in.Len() > budget) {
					t.Fatalf("budget %d, %d rows: %d spilled runs", budget, in.Len(), wantStats.SpilledRuns)
				}
				mustAgreeWithGRP(t, want, ref)
				label := fmt.Sprintf("rows=%d budget=%d workers=%d", in.Len(), budget, workers)
				got, stats, err := ComputeFrom(streamOf(ctx, in), productSig(), opts)
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
				src := streamOf(ctx, in)
				out, rep, err := AggregateFrom(src, step, opts, &agg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				gotStep, err := out.Relation(ctx, nil)
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

// rekeyed rebuilds a productRel relation with its answer names
// ("answer-%03d") replaced by key(g).
func rekeyed(rel *table.Relation, key func(g int) table.Value) *table.Relation {
	out := table.NewRelation(rel.Schema)
	for _, row := range rel.Rows {
		var g int
		if _, err := fmt.Sscanf(row[0].S, "answer-%d", &g); err != nil {
			panic(err)
		}
		nr := slices.Clone(row)
		nr[0] = key(g)
		out.MustAppend(nr)
	}
	return out
}

// mustAgreeWithGRP requires the operator's answers to be grpSequence's, the
// confidences within the cross-validation tolerance.
func mustAgreeWithGRP(t *testing.T, got, ref *table.Relation) {
	t.Helper()
	if got.Len() != ref.Len() {
		t.Fatalf("%d answers, GRP reference %d", got.Len(), ref.Len())
	}
	for i, row := range got.Rows {
		if table.Compare(row[0], ref.Rows[i][0]) != 0 || !prob.ApproxEqual(row[1].F, ref.Rows[i][1].F, 1e-9) {
			t.Fatalf("answer %d: %v, GRP reference %v", i, row, ref.Rows[i])
		}
	}
}

// cancelAfter cancels a context once n batches have gone through it.
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
			return engine.StreamCtx(ctx, memScan(rel), &cancelAfter{Sink: sink, n: 6, cancel: cancel})
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
	src := streamOf(ctx, rel)
	if _, _, err := ComputeFrom(src, twoSourceSig(), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ComputeFrom(src, twoSourceSig(), Options{}); err == nil {
		t.Fatal("second consumption of a streamed source succeeded")
	}
	src = streamOf(ctx, rel)
	got, err := src.Relation(ctx, nil)
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

// flatStreamOf is streamOf with string cells appended as raw bytes
// (ColVec.AppendStrBytes), the heap scan's decode path, in 1 000-row
// batches.
func flatStreamOf(ctx context.Context, rel *table.Relation) *Source {
	return NewSource(rel.Schema, func(sink engine.Sink) error {
		b := table.NewColBatch(rel.Schema)
		for lo := 0; lo < rel.Len(); lo += 1000 {
			if err := ctx.Err(); err != nil {
				return err
			}
			b.Reset(rel.Schema)
			for _, row := range rel.Rows[lo:min(lo+1000, rel.Len())] {
				for c, v := range row {
					if v.Kind == table.KindString {
						b.Cols[c].AppendStrBytes([]byte(v.S))
					} else {
						b.Cols[c].AppendValue(b.N, v)
					}
				}
				b.N++
			}
			if err := sink.AddBatch(b); err != nil {
				return err
			}
		}
		return nil
	})
}

// boundaryRel builds an answer relation over group keys (s string, f float)
// for signature (R*S*)*: groups answers, each the product of 5 R and 10 S
// variables — 50 rows, so groups straddle the 1 024-row sorted batches, and
// the aggregation step's 5 rows per answer and the final scan's answers
// straddle the 1 024-row output chunks. Every probability is 1/4, 1/2 or
// 3/4, so each confidence is a dyadic rational of under 53 bits and both
// the operator and grpSequence compute it exactly, whatever their order of
// operations. Answer g has s = "key-<g/2>" (hundreds of distinct strings
// at the sizes the tests use) and f = 1.5 for odd g; for even g, f is 0, written +0 in half of
// the rows and −0 in the other half — one group. A few answers have a NULL
// s, a NULL f or both.
func boundaryRel(rng *rand.Rand, groups int) *table.Relation {
	sch := table.NewSchema(
		table.DataCol("s", table.KindString), table.DataCol("f", table.KindFloat),
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
	)
	rel := table.NewRelation(sch)
	probs := []float64{0.25, 0.5, 0.75}
	nextVar := int64(1)
	draw := func(n int) ([]int64, []float64) {
		vs, ps := make([]int64, n), make([]float64, n)
		for i := range vs {
			vs[i], ps[i] = nextVar, probs[rng.Intn(len(probs))]
			nextVar++
		}
		return vs, ps
	}
	for g := 0; g < groups; g++ {
		s := table.Str(fmt.Sprintf("key-%04d", g/2))
		f := table.Float(1.5)
		if g%2 == 0 {
			f = table.Float(0)
		}
		switch g {
		case 7:
			f = table.Null()
		case 10, 11:
			s = table.Null()
		case 21:
			s, f = table.Null(), table.Null()
		}
		rv, rp := draw(5)
		sv, sp := draw(10)
		for i := range rv {
			for j := range sv {
				key := f
				if g%2 == 0 && g != 7 && (i+j)%2 == 1 {
					key = table.Float(math.Copysign(0, -1))
				}
				rel.MustAppend(table.Tuple{s, key,
					table.VarValue(prob.Var(rv[i])), table.Float(rp[i]),
					table.VarValue(prob.Var(sv[j])), table.Float(sp[j])})
			}
		}
	}
	rng.Shuffle(rel.Len(), func(i, j int) { rel.Rows[i], rel.Rows[j] = rel.Rows[j], rel.Rows[i] })
	return rel
}

// TestGroupedScanBatchBoundaries: the scan reads sorted column batches and
// writes column chunks, so groups straddle both kinds of boundary. Over
// boundaryRel's string keys fed as raw bytes, NULL keys and ±0 keys, unspilled and
// spilled, serially and at Workers 4, the answers must be grpSequence's:
// the same groups in the same order, −0 and +0 in one group, and every
// confidence bit for bit.
func TestGroupedScanBatchBoundaries(t *testing.T) {
	const groups = 1100
	rel := boundaryRel(rand.New(rand.NewSource(17)), groups)
	ref, err := grpSequence(rel, productSig())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() != groups {
		t.Fatalf("grpSequence found %d answers, want %d", ref.Len(), groups)
	}
	ctx := context.Background()
	for _, budget := range []int{0, 3000} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("budget=%d workers=%d", budget, workers)
			opts := Options{SortBudget: budget, TmpDir: t.TempDir(), Pool: pool.New(workers)}
			got, stats, err := ComputeFrom(flatStreamOf(ctx, rel), productSig(), opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if spilled := stats.SpilledRuns > 0; spilled != (budget > 0) {
				t.Fatalf("%s: %d spilled runs", label, stats.SpilledRuns)
			}
			if got.Len() != ref.Len() {
				t.Fatalf("%s: %d answers, grpSequence %d", label, got.Len(), ref.Len())
			}
			for i, row := range got.Rows {
				want := ref.Rows[i]
				for c := 0; c < 2; c++ {
					if row[c].Kind != want[c].Kind || table.Compare(row[c], want[c]) != 0 {
						t.Fatalf("%s: answer %d is %v, grpSequence %v", label, i, row, want)
					}
				}
				if math.Float64bits(row[2].F) != math.Float64bits(want[2].F) {
					t.Fatalf("%s: answer %v has conf %v, grpSequence %v", label, row[:2], row[2].F, want[2].F)
				}
			}
		}
	}
}
