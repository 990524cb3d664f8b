package conf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// randomTwoSourceRel builds an R/S answer relation with `groups` distinct
// answers and `dups` duplicate rows per answer — big enough to force the
// external sort to spill under a tiny budget.
func randomTwoSourceRel(rng *rand.Rand, groups, dups int) *table.Relation {
	sch := table.NewSchema(
		table.DataCol("d", table.KindInt),
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
	)
	rel := table.NewRelation(sch)
	nextVar := int64(1)
	for g := 0; g < groups; g++ {
		rv := nextVar
		nextVar++
		rp := 0.1 + 0.8*rng.Float64()
		for d := 0; d < dups; d++ {
			sv := nextVar
			nextVar++
			sp := 0.1 + 0.8*rng.Float64()
			rel.MustAppend(table.Tuple{table.Int(int64(g)),
				table.VarValue(prob.Var(rv)), table.Float(rp),
				table.VarValue(prob.Var(sv)), table.Float(sp)})
		}
	}
	// Shuffle so the sort has real work to do.
	rng.Shuffle(rel.Len(), func(i, j int) { rel.Rows[i], rel.Rows[j] = rel.Rows[j], rel.Rows[i] })
	return rel
}

// probMode drops the variable columns of an answer relation: the input of
// MystiQ's independent projection, which carries probabilities only.
func probMode(rel *table.Relation) *table.Relation {
	var keep []int
	for i, c := range rel.Schema.Cols {
		if c.Role != table.RoleVar {
			keep = append(keep, i)
		}
	}
	out := table.NewRelation(rel.Schema.Project(keep))
	for _, row := range rel.Rows {
		out.Rows = append(out.Rows, row.Project(keep))
	}
	return out
}

func twoSourceSig() signature.Sig {
	return signature.NewStar(signature.NewConcat(
		signature.Table("R"),
		signature.NewStar(signature.Table("S")),
	))
}

// TestComputeSpillsAreRemoved: after a Compute — and after an independent
// projection, the same pass with MystiQ's combine — whose tiny SortBudget
// forces many spilled runs, the spill dir must be empty — serially and under
// a multi-worker pool.
func TestComputeSpillsAreRemoved(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			rel := randomTwoSourceRel(rand.New(rand.NewSource(7)), 300, 10)
			opts := Options{SortBudget: 32, TmpDir: dir, Pool: pool.New(workers)}
			out, stats, err := ComputeStats(rel, twoSourceSig(), opts)
			if err != nil {
				t.Fatal(err)
			}
			ind, err := IndProject(FromRelation(probMode(rel)), []string{"d"}, opts, stats)
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != 300 || ind.Rows() != 300 {
				t.Fatalf("got %d answers and %d projected groups, want 300", out.Len(), ind.Rows())
			}
			if stats.SpilledRuns == 0 || stats.Scans != 2 {
				t.Fatalf("expected two scans with spilled runs under the tiny budget: %+v", stats)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Errorf("spill files left behind: %v", entries)
			}
		})
	}
}

// trippingCtx is a context whose Err starts failing after a fixed number of
// checks — an injected failure that hits the scan mid-stream, after run
// files were already created.
type trippingCtx struct {
	context.Context
	checks  atomic.Int64
	tripAt  int64
	tripped atomic.Bool
}

func (c *trippingCtx) Err() error {
	if c.checks.Add(1) > c.tripAt {
		c.tripped.Store(true)
		return context.Canceled
	}
	return nil
}

// TestComputeInjectedFailureCleansSpills: a failure injected mid-scan (the
// context trips after the sort already spilled) must abort Compute — and an
// independent projection — with the context's error, without leaving a
// single run file behind.
func TestComputeInjectedFailureCleansSpills(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(11)), 3000, 4)
	for name, run := range map[string]func(Options) error{
		"sort+scan": func(o Options) error {
			_, _, err := ComputeStats(rel, twoSourceSig(), o)
			return err
		},
		"π^ind": func(o Options) error {
			_, err := IndProject(FromRelation(probMode(rel)), []string{"d"}, o, &Stats{})
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := &trippingCtx{Context: context.Background(), tripAt: 2}
			err := run(Options{SortBudget: 32, TmpDir: dir, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("expected the injected cancellation, got %v", err)
			}
			if !ctx.tripped.Load() {
				t.Fatal("injected failure never fired")
			}
			entries, err2 := os.ReadDir(dir)
			if err2 != nil {
				t.Fatal(err2)
			}
			if len(entries) != 0 {
				t.Errorf("spill files left after injected failure: %v", entries)
			}
		})
	}
}

// productRel builds an answer relation over a string data column and two
// sources whose lineage per answer is a product (every R variable of the
// group paired with every S variable): signature (R*S*)*, which needs one
// aggregation step before the final scan. It returns the exact confidence
// of each answer.
func productRel(rng *rand.Rand, groups, nr, ns int) (*table.Relation, map[string]float64) {
	sch := table.NewSchema(
		table.DataCol("d", table.KindString),
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
	)
	rel := table.NewRelation(sch)
	want := make(map[string]float64)
	nextVar := int64(1)
	for g := 0; g < groups; g++ {
		d := fmt.Sprintf("answer-%03d", g)
		type tup struct {
			v int64
			p float64
		}
		draw := func(n int) ([]tup, float64) {
			ts, none := make([]tup, n), 1.0
			for i := range ts {
				ts[i] = tup{nextVar, 0.05 + 0.5*rng.Float64()}
				none *= 1 - ts[i].p
				nextVar++
			}
			return ts, 1 - none
		}
		rs, pr := draw(nr)
		ss, ps := draw(ns)
		want[d] = pr * ps
		for _, r := range rs {
			for _, s := range ss {
				rel.MustAppend(table.Tuple{table.Str(d),
					table.VarValue(prob.Var(r.v)), table.Float(r.p),
					table.VarValue(prob.Var(s.v)), table.Float(s.p)})
			}
		}
	}
	rng.Shuffle(rel.Len(), func(i, j int) { rel.Rows[i], rel.Rows[j] = rel.Rows[j], rel.Rows[i] })
	return rel, want
}

func productSig() signature.Sig {
	return signature.NewStar(signature.NewConcat(
		signature.NewStar(signature.Table("R")),
		signature.NewStar(signature.Table("S")),
	))
}

// TestSpilledScanMatchesUnspilled: the scans read a spilled sort's merge —
// every tuple decoded over the previous one of its run — while keeping the
// group's first and the previous tuple across rows. The answers must not
// depend on it: bit-identical to the unspilled run (which writes every row
// into one reused tuple), and right.
func TestSpilledScanMatchesUnspilled(t *testing.T) {
	rel, want := productRel(rand.New(rand.NewSource(21)), 40, 6, 9)
	mem, memStats, err := ComputeStats(rel, productSig(), Options{TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	spilled, spillStats, err := ComputeStats(rel, productSig(), Options{SortBudget: 100, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if memStats.SpilledRuns != 0 || memStats.SpillBytes != 0 {
		t.Fatalf("default budget spilled: %+v", memStats)
	}
	if spillStats.SpilledRuns < 3 || spillStats.SpillBytes <= 0 {
		t.Fatalf("tiny budget must spill several runs: %+v", spillStats)
	}
	if spillStats.Scans != 2 || memStats.Scans != 2 {
		t.Fatalf("(R*S*)* takes one aggregation and the final scan: %+v / %+v", memStats, spillStats)
	}
	if mem.Len() != len(want) || spilled.Len() != len(want) {
		t.Fatalf("%d / %d answers, want %d", mem.Len(), spilled.Len(), len(want))
	}
	for i, row := range mem.Rows {
		srow := spilled.Rows[i]
		if row[0].S != srow[0].S || math.Float64bits(row[1].F) != math.Float64bits(srow[1].F) {
			t.Fatalf("answer %d: unspilled %v, spilled %v", i, row, srow)
		}
		if !prob.ApproxEqual(row[1].F, want[row[0].S], 1e-9) {
			t.Errorf("answer %s: conf %g, want %g", row[0].S, row[1].F, want[row[0].S])
		}
	}
}

// TestSortScanAllocs pins the sort+scan's allocations per input row: the
// sorter encodes keys into one arena and sorts fixed-size entries, the
// merge decodes into per-run buffers, the scan reads sorted column batches
// and writes its groups into column chunks — so what remains is per sort,
// per run and per output chunk, not per input row. (Cloning each scanned
// row, as before the key sorter, is two allocations per input row.) An
// eager aggregation step is pinned per output row: its groups go into
// reserved BatchSize-row chunks that the next pass consumes as they are, so
// 10 000 groups cost a few allocations per chunk, not one row each.
func TestSortScanAllocs(t *testing.T) {
	t.Run("eager-step", func(t *testing.T) {
		rel := randomTwoSourceRel(rand.New(rand.NewSource(13)), 10000, 2)
		src := FromRelation(rel) // chunks: every run consumes the same input
		step := signature.NewStar(signature.Table("S"))
		for _, tc := range []struct {
			name   string
			budget int
		}{{"unspilled", 0}, {"spilled", 2500}} {
			t.Run(tc.name, func(t *testing.T) {
				opts := Options{SortBudget: tc.budget, TmpDir: t.TempDir()}
				var stats Stats
				var out *Source
				allocs := testing.AllocsPerRun(3, func() {
					stats = Stats{}
					var err error
					if out, _, err = AggregateFrom(src, step, opts, &stats); err != nil {
						t.Fatal(err)
					}
				})
				if spilled := stats.SpilledRuns > 0; spilled != (tc.budget > 0) {
					t.Fatalf("budget %d spilled %d runs", tc.budget, stats.SpilledRuns)
				}
				if out.Rows() != 10000 {
					t.Fatalf("[S*] emitted %d groups, want 10000", out.Rows())
				}
				if perRow := allocs / float64(out.Rows()); perRow > 0.05 {
					t.Errorf("%.0f allocations for %d output rows (%.3f per row), want ≤ 0.05 per row", allocs, out.Rows(), perRow)
				} else {
					t.Logf("%.0f allocations for %d output rows (%.4f per row)", allocs, out.Rows(), perRow)
				}
			})
		}
	})
	rel, _ := productRel(rand.New(rand.NewSource(5)), 25, 20, 40)
	for _, tc := range []struct {
		name   string
		budget int
	}{{"unspilled", 0}, {"spilled", 2500}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{SortBudget: tc.budget, TmpDir: t.TempDir()}
			var stats *Stats
			allocs := testing.AllocsPerRun(3, func() {
				var err error
				if _, stats, err = ComputeStats(rel, productSig(), opts); err != nil {
					t.Fatal(err)
				}
			})
			if spilled := stats.SpilledRuns > 0; spilled != (tc.budget > 0) {
				t.Fatalf("budget %d spilled %d runs", tc.budget, stats.SpilledRuns)
			}
			if perRow := allocs / float64(rel.Len()); perRow > 0.1 {
				t.Errorf("%.0f allocations for %d input rows (%.3f per row), want ≤ 0.1 per row", allocs, rel.Len(), perRow)
			} else {
				t.Logf("%.0f allocations for %d input rows (%.4f per row)", allocs, rel.Len(), perRow)
			}
		})
	}
	// Bytes, not only counts, for a streamed and spilled input: the run
	// buffer, the key arena and the sort entries are sized by the sort
	// budget and reused by every run, so feeding ten budgets' worth of rows
	// (same groups, ten times the duplicates: the same output) allocates at
	// most twice what feeding one budget's worth does — run files' page
	// buffers and the merge's per-run heads are what grows — where
	// materializing the input first costs ten times as much.
	t.Run("streamed-spilled-bytes", func(t *testing.T) {
		const budget = 4000
		measure := func(nr int) float64 {
			rel, _ := productRel(rand.New(rand.NewSource(9)), 10, nr, 20)
			scan := memScan(rel) // the input's chunks are built before measuring
			opts := Options{SortBudget: budget, TmpDir: t.TempDir()}
			var stats *Stats
			run := func() {
				var err error
				if _, stats, err = ComputeFrom(streamScan(context.Background(), scan), productSig(), opts); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm whatever pools the codec and the heap files draw from
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if stats.SpilledRuns < rel.Len()/budget {
				t.Fatalf("%d rows under budget %d spilled %d runs", rel.Len(), budget, stats.SpilledRuns)
			}
			bytes := float64(after.TotalAlloc - before.TotalAlloc)
			t.Logf("%d rows: %.0f bytes allocated (%.1f per row)", rel.Len(), bytes, bytes/float64(rel.Len()))
			return bytes
		}
		if one, ten := measure(budget/200), measure(10*budget/200); ten > 2*one {
			t.Errorf("feeding 10x the budget allocated %.0f bytes, more than twice the %.0f of feeding 1x", ten, one)
		}
	})
}
