package conf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/obdd"
	"repro/internal/pool"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// collectLineageRef is the sort-based lineage collection CollectLineage
// replaced, kept as its differential reference: stable-sort the rows by the
// data columns, walk the contiguous groups, dedup clauses per group. It
// records sources in the map form the old Lineage carried.
func collectLineageRef(rel *table.Relation) (*Lineage, map[prob.Var]string, error) {
	dataCols := rel.Schema.DataIndexes()
	var varCols, probCols []int
	var srcNames []string
	for _, src := range rel.Schema.Sources() {
		vi, pi := rel.Schema.VarIndex(src), rel.Schema.ProbIndex(src)
		if pi < 0 {
			return nil, nil, fmt.Errorf("conf: input has V(%s) but no P(%s): %v", src, src, rel.Schema.Names())
		}
		varCols = append(varCols, vi)
		probCols = append(probCols, pi)
		srcNames = append(srcNames, src)
	}
	l := &Lineage{
		Schema: rel.Schema.Project(dataCols),
		Assign: prob.NewAssignment(),
		Input:  int64(rel.Len()),
	}
	source := make(map[prob.Var]string)
	order := make([]int, rel.Len())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return table.CompareOn(rel.Rows[a], rel.Rows[b], dataCols)
	})
	vs := make(prob.Clause, 0, len(varCols))
	marginal := make(map[prob.Var]float64)
	seen := make(map[uint64][]prob.Clause)
	var cur *prob.DNF
	for n, ri := range order {
		row := rel.Rows[ri]
		vs = vs[:0]
		for k, vi := range varCols {
			v := row[vi].AsVar()
			if !v.Valid() {
				continue
			}
			p := row[probCols[k]].F
			if prev, ok := marginal[v]; ok {
				if prev != p {
					return nil, nil, fmt.Errorf("conf: variable %v carries two marginals, %g and %g (corrupt input)", v, prev, p)
				}
			} else {
				marginal[v] = p
				if err := l.Assign.Set(v, p); err != nil {
					return nil, nil, fmt.Errorf("conf: row %d: %w", ri, err)
				}
				source[v] = srcNames[k]
			}
			vs = append(vs, v)
		}
		if n == 0 || table.CompareOn(rel.Rows[order[n-1]], row, dataCols) != 0 {
			cur = prob.NewDNF()
			l.Keys = append(l.Keys, row.Project(dataCols))
			l.DNFs = append(l.DNFs, cur)
			clear(seen)
		}
		slices.Sort(vs)
		vs = slices.Compact(vs)
		h := vs.Hash()
		chain := seen[h]
		dup := false
		for _, e := range chain {
			if e.Equal(vs) {
				dup = true
				l.DupRows++
				break
			}
		}
		if !dup {
			clause := slices.Clone(vs)
			seen[h] = append(chain, clause)
			cur.Clauses = append(cur.Clauses, clause)
		}
	}
	l.Vars = int64(len(marginal))
	for _, d := range l.DNFs {
		slices.SortFunc(d.Clauses, slices.Compare[prob.Clause])
		l.Clauses += int64(len(d.Clauses))
	}
	return l, source, nil
}

// refRank is sigRank as it read the reference's source map.
func refRank(sig signature.Sig, source map[prob.Var]string) func(prob.Var) int {
	tables := signature.Tables(sig)
	return func(v prob.Var) int {
		if i := slices.Index(tables, source[v]); i >= 0 {
			return i
		}
		return len(tables)
	}
}

// lineageCase is one randomized answer relation of the differential test.
// Variables are drawn per source from disjoint id ranges — a variable has
// one source table, as in every relation the planner produces; the one
// sanctioned overlap is within a row (sameRow), where both collections
// credit the first source.
type lineageCase struct {
	name    string
	data    []table.Column                            // data columns; none = Boolean answer
	key     func(rng *rand.Rand, g int) []table.Value // data values of answer g
	answers int                                       // distinct answers drawn from
	rows    int
	perSrc  int     // variables per source: small = many duplicate rows and shared variables
	detFrac float64 // share of V cells that are ⊤ (deterministic tuples)
	sameRow bool    // S sometimes repeats R's variable within the row
}

func intKey(_ *rand.Rand, g int) []table.Value { return []table.Value{table.Int(int64(g))} }

var lineageCases = []lineageCase{
	{name: "boolean", rows: 400, perSrc: 12, answers: 1, key: func(*rand.Rand, int) []table.Value { return nil }},
	{name: "int-keys", data: []table.Column{table.DataCol("d", table.KindInt)}, key: intKey, answers: 40, rows: 2000, perSrc: 30},
	{name: "nulls", data: []table.Column{table.DataCol("d", table.KindInt), table.DataCol("e", table.KindFloat)},
		key: func(_ *rand.Rand, g int) []table.Value {
			d, e := table.Int(int64(g%5)), table.Float(float64(g/5)-0.5)
			if g%5 == 0 {
				d = table.Null()
			}
			if g/5 == 3 {
				e = table.Null()
			}
			return []table.Value{d, e}
		}, answers: 35, rows: 1500, perSrc: 25},
	{name: "string-keys", data: []table.Column{table.DataCol("s", table.KindString), table.DataCol("b", table.KindBool)},
		key: func(_ *rand.Rand, g int) []table.Value {
			return []table.Value{table.Str(fmt.Sprintf("k%03d", g/2)), table.Bool(g%2 == 0)}
		}, answers: 30, rows: 1500, perSrc: 25},
	{name: "heavy-duplicates", data: []table.Column{table.DataCol("d", table.KindInt)}, key: intKey, answers: 3, rows: 12000, perSrc: 6},
	{name: "deterministic-tuples", data: []table.Column{table.DataCol("d", table.KindInt)}, key: intKey, answers: 20, rows: 1500, perSrc: 15, detFrac: 0.4},
	{name: "shared-variables", data: []table.Column{table.DataCol("d", table.KindInt)}, key: intKey, answers: 200, rows: 1500, perSrc: 4},
	{name: "same-variable-twice-in-a-row", data: []table.Column{table.DataCol("d", table.KindInt)}, key: intKey, answers: 20, rows: 1500, perSrc: 20, sameRow: true},
	{name: "empty", data: []table.Column{table.DataCol("d", table.KindInt)}, key: intKey, answers: 1, rows: 0, perSrc: 1},
}

func (c lineageCase) build(rng *rand.Rand) *table.Relation {
	sources := []string{"R", "S", "T"}
	cols := slices.Clone(c.data)
	for _, s := range sources {
		cols = append(cols, table.VarCol(s), table.ProbCol(s))
	}
	rel := table.NewRelation(table.NewSchema(cols...))
	marginal := func(v int) float64 { return 0.05 + 0.9*float64(v%97)/97 }
	for i := 0; i < c.rows; i++ {
		row := append(table.Tuple(nil), c.key(rng, rng.Intn(c.answers))...)
		first := 0
		for k := range sources {
			v := 1 + k*c.perSrc + rng.Intn(c.perSrc)
			switch {
			case rng.Float64() < c.detFrac:
				v = 0
			case k == 0:
				first = v
			case c.sameRow && k == 1 && first != 0 && rng.Intn(3) == 0:
				v = first
			}
			p := 1.0
			if v != 0 {
				p = marginal(v)
			}
			row = append(row, table.VarValue(prob.Var(v)), table.Float(p))
		}
		rel.MustAppend(row)
	}
	return rel
}

// mustMatchRef requires got to be, field for field, what the sort-based
// reference collects from rel.
func mustMatchRef(t *testing.T, rel *table.Relation, got *Lineage) {
	t.Helper()
	want, source, err := collectLineageRef(rel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Errorf("Schema %v, want %v", got.Schema, want.Schema)
	}
	if !reflect.DeepEqual(got.Keys, want.Keys) {
		t.Errorf("Keys differ: %d vs %d answers", len(got.Keys), len(want.Keys))
	}
	if len(got.DNFs) != len(want.DNFs) {
		t.Fatalf("%d DNFs, want %d", len(got.DNFs), len(want.DNFs))
	}
	for i := range want.DNFs {
		if !reflect.DeepEqual(got.DNFs[i].Clauses, want.DNFs[i].Clauses) {
			t.Fatalf("answer %d: clauses %v, want %v", i, got.DNFs[i].Clauses, want.DNFs[i].Clauses)
		}
	}
	if vs := want.Assign.Vars(); got.Assign.Len() != len(vs) || !slices.Equal(got.Assign.Vars(), vs) {
		t.Errorf("Assign differs: %d vs %d variables", got.Assign.Len(), want.Assign.Len())
	} else {
		for _, v := range vs {
			if got.Assign.P(v) != want.Assign.P(v) {
				t.Fatalf("Assign: P(%v) = %g, want %g", v, got.Assign.P(v), want.Assign.P(v))
			}
		}
	}
	if got.Clauses != want.Clauses || got.Vars != want.Vars || got.DupRows != want.DupRows || got.Input != want.Input {
		t.Errorf("clauses/vars/dup/input = %d/%d/%d/%d, want %d/%d/%d/%d",
			got.Clauses, got.Vars, got.DupRows, got.Input, want.Clauses, want.Vars, want.DupRows, want.Input)
	}
	sig := signature.Concat{signature.Table("T"), signature.Table("R")}
	rank, ref := sigRank(sig, got), refRank(sig, source)
	for _, v := range append(want.Assign.Vars(), 1<<30) {
		if rank(v) != ref(v) {
			t.Fatalf("sigRank(%v) = %d, want %d", v, rank(v), ref(v))
		}
	}
}

// batchFeed streams rel as column batches of size live rows, reusing one
// batch (so the collector must copy what it keeps). With sel, a dead row the
// selection vector skips precedes every live one — a row that would add a
// variable of its own if it were read. String cells of every other batch go
// in as raw bytes, so both string appenders are compared too.
func batchFeed(rel *table.Relation, size int, sel bool) *Source {
	return NewSource(rel.Schema, func(sink engine.Sink) error {
		b := table.NewColBatch(rel.Schema)
		for lo, k := 0, 0; lo < rel.Len(); lo, k = lo+size, k+1 {
			b.Reset(rel.Schema)
			var live []int32
			for _, row := range rel.Rows[lo:min(lo+size, rel.Len())] {
				if sel {
					dead := slices.Clone(row)
					for _, src := range rel.Schema.Sources() {
						dead[rel.Schema.VarIndex(src)] = table.VarValue(prob.Var(1<<20 + b.N))
					}
					appendCells(b, dead, k)
					live = append(live, int32(b.N))
				}
				appendCells(b, row, k)
			}
			if sel {
				b.Sel = live
			}
			if err := sink.AddBatch(b); err != nil {
				return err
			}
		}
		return nil
	})
}

func appendCells(b *table.ColBatch, row table.Tuple, k int) {
	for c, v := range row {
		if v.Kind == table.KindString && k%2 == 1 {
			b.Cols[c].AppendStrBytes([]byte(v.S))
		} else {
			b.Cols[c].AppendValue(b.N, v)
		}
	}
	b.N++
}

// TestCollectLineageMatchesReference: hash-grouped collection returns the
// Lineage the sort-based one returned, over the shapes that stress grouping
// and dedup, through every feed a source has — column batches of 1, 7 and
// 1024 rows with and without a selection vector, a scan's drain
// (streamOf), and a materialized relation — in arrival order and shuffled,
// with full-width hashes and with every hash cut to one bit — two chains
// holding all answers, two holding all clauses — so equality, not the hash,
// does the separating. Each collection but the first is released once
// checked, so the next draws storage another shape left dirty.
func TestCollectLineageMatchesReference(t *testing.T) {
	feeds := map[string]func(*table.Relation) *Source{
		"relation": FromRelation,
		"drain":    func(rel *table.Relation) *Source { return streamOf(context.Background(), rel) },
	}
	for _, size := range []int{1, 7, 1024} {
		for _, sel := range []bool{false, true} {
			feeds[fmt.Sprintf("batches of %d sel=%v", size, sel)] = func(rel *table.Relation) *Source { return batchFeed(rel, size, sel) }
		}
	}
	for _, c := range lineageCases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			rel := c.build(rng)
			for name, feed := range feeds {
				for _, mask := range []uint64{^uint64(0), 1} {
					got, err := collectLineage(context.Background(), feed(rel), mask)
					if err != nil {
						t.Fatal(name, err)
					}
					mustMatchRef(t, rel, got)
					got.Release() // the next collection draws its storage
				}
			}
			rng.Shuffle(rel.Len(), func(i, j int) { rel.Rows[i], rel.Rows[j] = rel.Rows[j], rel.Rows[i] })
			got, err := CollectLineage(rel)
			if err != nil {
				t.Fatal(err)
			}
			mustMatchRef(t, rel, got)
		})
	}
}

// TestCollectLineageCancelled: a context cancelled while the answer is
// still streaming into collection — through a pipeline's drain, or a
// relation's own batches — ends it with the context's error.
func TestCollectLineageCancelled(t *testing.T) {
	rel := lineageCases[4].build(rand.New(rand.NewSource(5)))
	for name, feed := range map[string]func(ctx context.Context, sink engine.Sink) error{
		"drain": func(ctx context.Context, sink engine.Sink) error {
			return engine.StreamCtx(ctx, memScan(rel), sink)
		},
		"relation": func(ctx context.Context, sink engine.Sink) error { return FromRelation(rel).push(ctx, sink) },
	} {
		ctx, cancel := context.WithCancel(context.Background())
		src := NewSource(rel.Schema, func(sink engine.Sink) error {
			return feed(ctx, &cancelAfter{Sink: sink, n: 3, cancel: cancel})
		})
		_, err := CollectLineageFrom(ctx, src)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", name, err)
		}
	}
}

// TestCollectLineageErrorsMatchReference: both error paths report what the
// reference reports.
func TestCollectLineageErrorsMatchReference(t *testing.T) {
	noProb := table.NewRelation(table.NewSchema(table.DataCol("d", table.KindInt), table.VarCol("R")))
	noProb.MustAppend(table.Tuple{table.Int(1), table.VarValue(1)})
	twoMarginals := mcAnswerRel([][5]float64{{1, 1, 0.5, 2, 0.5}, {2, 3, 0.5, 1, 0.25}})
	badMarginal := mcAnswerRel([][5]float64{{1, 1, 0.5, 2, 1.5}})
	for name, rel := range map[string]*table.Relation{"V without P": noProb, "two marginals": twoMarginals, "marginal outside (0,1]": badMarginal} {
		_, err := CollectLineage(rel)
		_, _, want := collectLineageRef(rel)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, reference %v", name, err, want)
		}
	}
}

// TestCollectedLineageDrivesTiers runs the tier driver at Workers: 4 over a
// hash-collected lineage and over the reference's (run under -race in CI):
// the compilation tiers read the shared clause arena concurrently, and
// their confidences must not be able to tell the two collections apart.
func TestCollectedLineageDrivesTiers(t *testing.T) {
	rel := lineageCases[1].build(rand.New(rand.NewSource(3)))
	got, err := CollectLineage(rel)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := collectLineageRef(rel)
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(4)
	for name, run := range map[string]func(l *Lineage) (*table.Relation, error){
		"obdd": func(l *Lineage) (*table.Relation, error) {
			out, _, err := OBDDLineage(context.Background(), p, l, nil, obdd.Options{}, false)
			return out, err
		},
		"dtree": func(l *Lineage) (*table.Relation, error) {
			out, _, err := DTreeLineage(context.Background(), p, l, dtree.Options{}, false)
			return out, err
		},
		"mc": func(l *Lineage) (*table.Relation, error) {
			out, _, err := MonteCarloLineage(context.Background(), l, prob.MCOptions{Seed: 9, Pool: p})
			return out, err
		},
	} {
		a, err := run(got)
		if err != nil {
			t.Fatal(name, err)
		}
		b, err := run(want)
		if err != nil {
			t.Fatal(name, err)
		}
		if !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("%s: confidences differ between the two collections", name)
		}
	}
}

// BenchmarkCollectLineage collects the lineage_unsafe benchmark's shape:
// 120 k answer rows of three sources into 2.4 k answers, every row its own
// clause.
func BenchmarkCollectLineage(b *testing.B) {
	c := lineageCase{data: []table.Column{table.DataCol("d", table.KindString)},
		key:     func(_ *rand.Rand, g int) []table.Value { return []table.Value{table.Str(fmt.Sprintf("1995-%04d", g))} },
		answers: 2400, rows: 120000, perSrc: 40000}
	rel := c.build(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := CollectLineage(rel)
		if err != nil || len(l.Keys) != 2400 {
			b.Fatal(len(l.Keys), err)
		}
	}
	b.ReportMetric(float64(rel.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
