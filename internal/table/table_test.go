package table

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prob"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("Joe"), "Joe"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareSameKind(t *testing.T) {
	if Compare(Int(1), Int(2)) >= 0 {
		t.Error("1 < 2 failed")
	}
	if Compare(Str("a"), Str("b")) >= 0 {
		t.Error("a < b failed")
	}
	if Compare(Float(1.5), Float(1.5)) != 0 {
		t.Error("1.5 == 1.5 failed")
	}
	if Compare(Bool(false), Bool(true)) >= 0 {
		t.Error("false < true failed")
	}
}

func TestCompareCrossNumeric(t *testing.T) {
	if Compare(Int(1), Float(1.5)) >= 0 {
		t.Error("1 < 1.5 failed")
	}
	if Compare(Float(2.0), Int(2)) != 0 {
		t.Error("2.0 == 2 failed")
	}
	if Compare(Int(3), Float(2.5)) <= 0 {
		t.Error("3 > 2.5 failed")
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(Null(), Int(0)) >= 0 {
		t.Error("NULL should sort before values")
	}
	if Compare(Int(0), Null()) <= 0 {
		t.Error("values should sort after NULL")
	}
	if Compare(Null(), Null()) != 0 {
		t.Error("NULL == NULL failed")
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	vals := []Value{Null(), Int(-1), Int(7), Float(0.5), Float(7), Str(""), Str("z"), Bool(true)}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
}

func TestQuickCompareTransitive(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return Int(int64(r.Intn(20) - 10))
		case 1:
			return Float(float64(r.Intn(40))/4 - 5)
		case 2:
			return Str(string(rune('a' + r.Intn(5))))
		default:
			return Null()
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSchemaLookups(t *testing.T) {
	s := NewSchema(DataCol("ckey", KindInt), DataCol("cname", KindString), VarCol("Cust"), ProbCol("Cust"))
	if s.ColIndex("cname") != 1 {
		t.Error("ColIndex(cname) wrong")
	}
	if s.ColIndex("missing") != -1 {
		t.Error("ColIndex(missing) should be -1")
	}
	if s.VarIndex("Cust") != 2 || s.ProbIndex("Cust") != 3 {
		t.Error("Var/ProbIndex wrong")
	}
	if s.VarIndex("Ord") != -1 {
		t.Error("VarIndex of absent source should be -1")
	}
	if got := s.DataIndexes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("DataIndexes = %v", got)
	}
	if got := s.Sources(); len(got) != 1 || got[0] != "Cust" {
		t.Errorf("Sources = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColIndex should panic on unknown column")
		}
	}()
	s.MustColIndex("nope")
}

func TestSchemaProjectConcat(t *testing.T) {
	s := NewSchema(DataCol("a", KindInt), DataCol("b", KindString))
	u := NewSchema(DataCol("c", KindFloat))
	j := s.Concat(u)
	if j.Len() != 3 || j.ColIndex("c") != 2 {
		t.Errorf("Concat wrong: %v", j)
	}
	p := j.Project([]int{2, 0})
	if p.Len() != 2 || p.Cols[0].Name != "c" || p.Cols[1].Name != "a" {
		t.Errorf("Project wrong: %v", p)
	}
}

func TestTupleOps(t *testing.T) {
	tu := Tuple{Int(1), Str("x"), Float(2)}
	cl := tu.Clone()
	cl[0] = Int(9)
	if tu[0].I != 1 {
		t.Error("Clone must not alias")
	}
	pr := tu.Project([]int{2, 0})
	if pr[0].F != 2 || pr[1].I != 1 {
		t.Errorf("Project = %v", pr)
	}
	a := Tuple{Int(1), Int(2)}
	b := Tuple{Int(1), Int(3)}
	if CompareOn(a, b, []int{0}) != 0 {
		t.Error("CompareOn on equal prefix should be 0")
	}
	if CompareOn(a, b, []int{0, 1}) >= 0 {
		t.Error("CompareOn should order by second column")
	}
	if CompareOn(a, b, []int{1}) == 0 {
		t.Error("CompareOn on differing columns should not be 0")
	}
}

func TestRelationArityCheck(t *testing.T) {
	r := NewRelation(NewSchema(DataCol("a", KindInt)))
	if err := r.Append(Tuple{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch should error")
	}
	if err := r.Append(Tuple{Int(1)}); err != nil {
		t.Error(err)
	}
	if r.Len() != 1 {
		t.Error("Len wrong")
	}
}

func TestProbTable(t *testing.T) {
	ct := NewProbTable("Cust", DataCol("ckey", KindInt), DataCol("cname", KindString))
	if ct.Rel.Schema.Len() != 4 {
		t.Fatalf("ProbTable schema should have data+V+P columns, got %v", ct.Rel.Schema)
	}
	ct.MustAddRow(1, 0.1, Int(1), Str("Joe"))
	ct.MustAddRow(2, 0.2, Int(2), Str("Dan"))
	if err := ct.AddRow(3, 1.5, Int(3), Str("Li")); err == nil {
		t.Error("out-of-range probability should be rejected")
	}
	a := prob.NewAssignment()
	if err := ct.Assignment(a); err != nil {
		t.Fatal(err)
	}
	if a.P(1) != 0.1 || a.P(2) != 0.2 {
		t.Errorf("Assignment wrong: p1=%g p2=%g", a.P(1), a.P(2))
	}
}

// TestColStoreChunks: a store keeps its rows in insertion order as
// BatchSize-row chunks, refuses a row that does not fit the schema, and
// its Check refuses a chunk of the wrong shape put in place by hand.
func TestColStoreChunks(t *testing.T) {
	s := NewColStore(NewSchema(DataCol("a", KindInt), DataCol("s", KindString)))
	n := 2*BatchSize + 1
	for i := 0; i < n; i++ {
		if err := s.Append(Tuple{Int(int64(i)), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(Tuple{Str("y"), Str("x")}); err == nil {
		t.Error("a wrong-kind row must be refused")
	}
	if s.Len() != n || len(s.Chunks) != 3 || s.Chunks[2].N != 1 {
		t.Fatalf("%d rows in %d chunks, want %d in 3", s.Len(), len(s.Chunks), n)
	}
	if got := s.Chunks[1].Cols[0].Ints[5]; got != BatchSize+5 {
		t.Errorf("row %d holds a = %d", BatchSize+5, got)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.Chunks = append(s.Chunks, NewColBatch(NewSchema(DataCol("a", KindFloat), DataCol("s", KindString))))
	if err := s.Check(); err == nil || !strings.Contains(err.Error(), "column a is int") {
		t.Errorf("wrong-kind chunk: got %v", err)
	}
	s.Chunks[3] = NewColBatch(NewSchema(DataCol("a", KindInt)))
	if err := s.Check(); err == nil {
		t.Error("a chunk of the wrong arity must be refused")
	}
}

func TestVarValueRoundTrip(t *testing.T) {
	v := VarValue(7)
	if v.AsVar() != 7 {
		t.Error("VarValue/AsVar round trip failed")
	}
}
