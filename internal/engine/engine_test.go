package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/table"
)

func intsRel(name string, vals ...int64) *table.Relation {
	r := table.NewRelation(table.NewSchema(table.DataCol(name, table.KindInt)))
	for _, v := range vals {
		r.MustAppend(table.Tuple{table.Int(v)})
	}
	return r
}

// pairRel builds a two-int-column relation from (a,b) pairs.
func pairRel(aName, bName string, pairs ...[2]int64) *table.Relation {
	r := table.NewRelation(table.NewSchema(table.DataCol(aName, table.KindInt), table.DataCol(bName, table.KindInt)))
	for _, p := range pairs {
		r.MustAppend(table.Tuple{table.Int(p[0]), table.Int(p[1])})
	}
	return r
}

// memScan scans rel as a base table is scanned: its rows stored as column
// chunks (table.ColStore) under a ColChunkScan.
func memScan(rel *table.Relation) *ColChunkScan {
	st := table.NewColStore(rel.Schema)
	for _, row := range rel.Rows {
		if err := st.Append(row); err != nil {
			panic(err)
		}
	}
	return &ColChunkScan{S: rel.Schema, Chunks: st.Chunks}
}

// withPreds hands a scan its selections.
func withPreds(op ColOperator, preds ...ColPred) ColOperator {
	switch s := op.(type) {
	case *ColChunkScan:
		s.Preds = preds
	case *ColHeapScan:
		s.Preds = preds
	default:
		panic(fmt.Sprintf("withPreds: %T is not a scan", op))
	}
	return op
}

// collect drains a columnar operator into a relation through StreamCtx.
func collect(t *testing.T, op ColOperator) *table.Relation {
	t.Helper()
	sink := NewRelationSink(op.Schema())
	if err := StreamCtx(nil, op, sink); err != nil {
		t.Fatal(err)
	}
	return sink.Rel
}

// countCols drains a columnar operator and returns only the row count.
func countCols(op ColOperator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	var n int64
	b := table.NewColBatch(op.Schema())
	for {
		k, err := op.NextColBatch(b)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return n, nil
		}
		n += int64(k)
	}
}

// hashJoin is NewColHashJoin for inputs known to be well formed.
func hashJoin(t *testing.T, l, r ColOperator, lk, rk []int) *ColHashJoin {
	t.Helper()
	j, err := NewColHashJoin(l, r, lk, rk)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestFilter(t *testing.T) {
	rel := intsRel("a", 1, 2, 3, 4, 5)
	f := withPreds(memScan(rel), ColPred{Col: 0, Op: OpGt, Val: table.Int(3)})
	rows := collect(t, f).Rows
	if len(rows) != 2 || rows[0][0].I != 4 || rows[1][0].I != 5 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestCmpOps is the scans' predicate table: for every CmpOp, the rows a
// column-vs-constant predicate keeps are exactly those whose cell c has
// op.Holds(table.Compare(c, constant)) — over NULL cells, int columns
// against float constants and float columns against int ones, the typed
// null-free fast paths, bool columns, and string columns of a few and of
// over a thousand distinct values, from in-memory chunks and heap pages. Each
// predicate runs on a fresh batch (no selection vector) and behind a first
// predicate that leaves every other row selected.
func TestCmpOps(t *testing.T) {
	sch := table.NewSchema(
		table.DataCol("odd", table.KindInt),
		table.DataCol("i", table.KindInt), table.DataCol("inn", table.KindInt),
		table.DataCol("f", table.KindFloat), table.DataCol("fnn", table.KindFloat),
		table.DataCol("sd", table.KindString), table.DataCol("sf", table.KindString),
		table.DataCol("b", table.KindBool),
	)
	rel := table.NewRelation(sch)
	rng := rand.New(rand.NewSource(13))
	maybeNull := func(v table.Value) table.Value {
		if rng.Intn(5) == 0 {
			return table.Null()
		}
		return v
	}
	for r := 0; r < BatchSize+300; r++ {
		k := int64(rng.Intn(7))
		rel.MustAppend(table.Tuple{
			table.Int(int64(r % 2)),
			maybeNull(table.Int(k)), table.Int(k),
			maybeNull(table.Float(float64(k) / 2)), table.Float(float64(k) / 2),
			maybeNull(table.Str(fmt.Sprintf("d%d", k))), table.Str(fmt.Sprintf("f%05d", rng.Intn(1024))),
			table.Bool(k%2 == 0),
		})
	}
	h := writeHeap(t, t.TempDir(), rel)
	pool := storage.NewBufferPool(8)
	consts := map[string][]table.Value{
		"i":   {table.Int(3), table.Float(2.5), table.Float(3), table.Null()},
		"inn": {table.Int(3), table.Float(2.5)},
		"f":   {table.Float(1.5), table.Int(2), table.Null()},
		"fnn": {table.Float(1.5), table.Int(2)},
		"sd":  {table.Str("d3"), table.Str("zz")},
		"sf":  {table.Str("f00500"), table.Str("a")},
		"b":   {table.Bool(true), table.Bool(false)},
	}
	sources := map[string]func() ColOperator{
		"mem":  func() ColOperator { return memScan(rel) },
		"heap": func() ColOperator { return NewColHeapScan(h, pool, sch) },
	}
	everyOther := ColPred{Col: 0, Op: OpEq, Val: table.Int(1)}
	for src, scan := range sources {
		for col, cs := range consts {
			ci := sch.ColIndex(col)
			for _, c := range cs {
				for op := OpEq; op <= OpGe; op++ {
					p := ColPred{Col: ci, Op: op, Val: c}
					for _, withSel := range []bool{false, true} {
						preds := []ColPred{p}
						if withSel {
							preds = []ColPred{everyOther, p}
						}
						var want []table.Tuple
						for _, row := range rel.Rows {
							if (!withSel || row[0].I == 1) && op.Holds(table.Compare(row[ci], c)) {
								want = append(want, row)
							}
						}
						got := collect(t, withPreds(scan(), preds...))
						label := fmt.Sprintf("%s %s %v %v sel=%v", src, col, op, c, withSel)
						mustSameRelations(t, label, got, &table.Relation{Schema: sch, Rows: want})
					}
				}
			}
		}
	}
}

// TestProjectColumnsAndExprs: a projection selects input columns by name,
// keeping their metadata, or by index under a relabelled output schema —
// the planner's occurrence rename — and an unknown name is an error.
func TestProjectColumnsAndExprs(t *testing.T) {
	rel := pairRel("a", "b", [2]int64{2, 3}, [2]int64{5, 7})
	p, err := NewColumnProject(memScan(rel), []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, p).Rows
	if len(rows) != 2 || rows[0][0].I != 3 || rows[1][0].I != 7 {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := NewColumnProject(memScan(rel), []string{"zz"}); err == nil {
		t.Error("unknown column should error")
	}

	// Relabelling projection: swap the columns and rename them.
	out := table.NewSchema(table.DataCol("y", table.KindInt), table.DataCol("x", table.KindInt))
	pr, err := NewColProject(memScan(rel), []int{1, 0}, out)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, pr)
	if got.Schema != out || got.Rows[0][0].I != 3 || got.Rows[0][1].I != 2 || got.Rows[1][0].I != 7 {
		t.Fatalf("relabelled rows = %v under %v", got.Rows, got.Schema)
	}
}

func TestHashJoinBasic(t *testing.T) {
	l := pairRel("k", "x", [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})
	r := pairRel("k", "y", [2]int64{2, 200}, [2]int64{2, 201}, [2]int64{4, 400})
	rows := collect(t, hashJoin(t, memScan(l), memScan(r), []int{0}, []int{0})).Rows
	if len(rows) != 2 {
		t.Fatalf("join rows = %v", rows)
	}
	for _, row := range rows {
		if row[0].I != 2 || row[2].I != 2 {
			t.Errorf("join keys should match: %v", row)
		}
	}
}

func TestHeapScanThroughEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.heap")
	h, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := h.Append(table.Tuple{table.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.FinishWrites(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sch := table.NewSchema(table.DataCol("a", table.KindInt))
	pool := storage.NewBufferPool(8)
	n, err := countCols(NewColHeapScan(h, pool, sch))
	if err != nil || n != 1000 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Selection in the heap scan.
	f := withPreds(NewColHeapScan(h, pool, sch), ColPred{Col: 0, Op: OpLt, Val: table.Int(10)})
	if rows := collect(t, f).Rows; len(rows) != 10 {
		t.Fatalf("filtered rows = %d", len(rows))
	}
}

// TestQuickJoinCommutes: |L ⋈ R| is symmetric for hash joins.
func TestQuickJoinCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *table.Relation {
			rel := intsRel("k")
			n := r.Intn(30)
			for i := 0; i < n; i++ {
				rel.MustAppend(table.Tuple{table.Int(int64(r.Intn(8)))})
			}
			return rel
		}
		a, b := mk(), mk()
		n1, err := countCols(hashJoin(t, memScan(a), memScan(b), []int{0}, []int{0}))
		if err != nil {
			t.Fatal(err)
		}
		n2, err := countCols(hashJoin(t, memScan(b), memScan(a), []int{0}, []int{0}))
		if err != nil {
			t.Fatal(err)
		}
		return n1 == n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
