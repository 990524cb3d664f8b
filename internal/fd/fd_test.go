package fd

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/query"
)

func TestClosureSimple(t *testing.T) {
	// CLOSURE{A→D; BD→E}(ABC) = ABCDE (paper §IV example).
	s := NewSet(
		FD{LHS: []string{"A"}, RHS: []string{"D"}},
		FD{LHS: []string{"B", "D"}, RHS: []string{"E"}},
	)
	got := s.Closure([]string{"A", "B", "C"})
	want := []string{"A", "B", "C", "D", "E"}
	if strings.Join(got, "") != strings.Join(want, "") {
		t.Errorf("Closure = %v, want %v", got, want)
	}
}

func TestClosureEmptySet(t *testing.T) {
	var s *Set
	got := s.Closure([]string{"b", "a"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("nil-set closure = %v", got)
	}
	if !s.Empty() {
		t.Error("nil set should be empty")
	}
}

// implies reports whether Σ ⊨ lhs → rhs: rhs lies in the closure of lhs.
func (s *Set) implies(lhs, rhs []string) bool {
	cl := s.Closure(lhs)
	in := make(map[string]bool, len(cl))
	for _, a := range cl {
		in[a] = true
	}
	for _, a := range rhs {
		if !in[a] {
			return false
		}
	}
	return true
}

func TestImplies(t *testing.T) {
	s := NewSet(FD{LHS: []string{"okey"}, RHS: []string{"ckey", "odate"}})
	if !s.implies([]string{"okey"}, []string{"odate"}) {
		t.Error("okey → odate should hold")
	}
	if s.implies([]string{"ckey"}, []string{"okey"}) {
		t.Error("ckey → okey should not hold")
	}
}

func TestAddKey(t *testing.T) {
	s := NewSet()
	s.AddKey("Ord", []string{"okey"}, []string{"okey", "ckey", "odate"})
	if len(s.FDs) != 1 {
		t.Fatalf("AddKey should add one FD, got %v", s)
	}
	f := s.FDs[0]
	if len(f.RHS) != 2 {
		t.Errorf("key attr must not appear in RHS: %v", f)
	}
	// A key over all attributes adds nothing.
	s2 := NewSet()
	s2.AddKey("R", []string{"a"}, []string{"a"})
	if len(s2.FDs) != 0 {
		t.Errorf("trivial key should add no FD: %v", s2)
	}
}

// TestReductExIV3 reproduces Example IV.3: the FD-reduct of
// π_cname(Item(okey,discount) ⋈ Ord(okey,ckey,odate) ⋈ Cust(ckey,cname))
// under Ord: okey→ckey,odate (plus Cust: ckey→cname, the TPC-H key that the
// example implicitly uses when it keeps cname out of the reduct — cname is
// in CLOSURE(A0) only via the head itself, which is always dropped).
func TestReductExIV3(t *testing.T) {
	q := &query.Query{
		Name: "ExIV3",
		Head: []string{"cname"},
		Rels: []query.RelRef{
			query.Rel("Item", "okey", "discount"),
			query.Rel("Ord", "okey", "ckey", "odate"),
			query.Rel("Cust", "ckey", "cname"),
		},
	}
	if q.IsHierarchical() {
		t.Fatal("the original query is non-hierarchical")
	}
	sigma := NewSet(FD{Rel: "Ord", LHS: []string{"okey"}, RHS: []string{"ckey", "odate"}})
	red := Reduct(q, sigma)
	if !red.IsBoolean() {
		t.Error("reduct must be Boolean")
	}
	attrsOf := func(name string) []string {
		r, ok := red.RelByName(name)
		if !ok {
			t.Fatalf("relation %s missing from reduct", name)
		}
		out := append([]string(nil), r.Attrs...)
		slices.Sort(out)
		return out
	}
	// Item(okey,discount,ckey,odate), Ord(okey,ckey,odate), Cust(ckey).
	if got := strings.Join(attrsOf("Item"), ","); got != "ckey,discount,odate,okey" {
		t.Errorf("Item attrs = %v", got)
	}
	if got := strings.Join(attrsOf("Ord"), ","); got != "ckey,odate,okey" {
		t.Errorf("Ord attrs = %v", got)
	}
	if got := strings.Join(attrsOf("Cust"), ","); got != "ckey" {
		t.Errorf("Cust attrs = %v", got)
	}
	if !red.IsHierarchical() {
		t.Error("the FD-reduct must be hierarchical (paper: 'Whereas the latter is a Boolean hierarchical query')")
	}
	if _, _, err := HierarchicalReduct(q, sigma); err != nil {
		t.Errorf("HierarchicalReduct: %v", err)
	}
}

// TestReductExIV4 reproduces Example IV.4: the FD-reduct of
// π_okey(Item(ckey,okey,discount) ⋈ Ord(okey,ckey,odate) ⋈ Cust(ckey,cname))
// under okey→ckey,odate and ckey→cname is
// π_∅(Item(discount) ⋈ Ord() ⋈ Cust()).
func TestReductExIV4(t *testing.T) {
	q := &query.Query{
		Name: "ExIV4",
		Head: []string{"okey"},
		Rels: []query.RelRef{
			query.Rel("Item", "ckey", "okey", "discount"),
			query.Rel("Ord", "okey", "ckey", "odate"),
			query.Rel("Cust", "ckey", "cname"),
		},
	}
	sigma := NewSet(
		FD{Rel: "Ord", LHS: []string{"okey"}, RHS: []string{"ckey", "odate"}},
		FD{Rel: "Cust", LHS: []string{"ckey"}, RHS: []string{"cname"}},
	)
	red := Reduct(q, sigma)
	item, _ := red.RelByName("Item")
	ord, _ := red.RelByName("Ord")
	cust, _ := red.RelByName("Cust")
	if len(item.Attrs) != 1 || item.Attrs[0] != "discount" {
		t.Errorf("Item attrs = %v, want [discount]", item.Attrs)
	}
	if len(ord.Attrs) != 0 {
		t.Errorf("Ord attrs = %v, want []", ord.Attrs)
	}
	if len(cust.Attrs) != 0 {
		t.Errorf("Cust attrs = %v, want []", cust.Attrs)
	}
}

// TestReductIntroQPrime: Q' from the Introduction becomes hierarchical
// under the TPC-H FD okey → ckey odate.
func TestReductIntroQPrime(t *testing.T) {
	q := &query.Query{
		Name: "Q'",
		Head: []string{"odate"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname"),
			query.Rel("Ord", "okey", "ckey", "odate"),
			query.Rel("Item", "okey", "discount"),
		},
	}
	if q.IsHierarchical() {
		t.Fatal("Q' must be non-hierarchical without FDs")
	}
	sigma := NewSet(
		FD{Rel: "Ord", LHS: []string{"okey"}, RHS: []string{"ckey", "odate"}},
		FD{Rel: "Cust", LHS: []string{"ckey"}, RHS: []string{"cname"}},
	)
	red, tree, err := HierarchicalReduct(q, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if red == nil || tree == nil {
		t.Fatal("expected reduct and tree")
	}
	// Structure (Cust(Ord Item*)*)*: root over Cust + {Ord,Item} node.
	if tree.IsLeaf() || len(tree.Children) != 2 {
		t.Fatalf("unexpected tree shape: %v", tree)
	}
}

// TestChaseNeverBreaksHierarchy is Prop. IV.5's invariant on a concrete
// family: starting from a hierarchical query, reducts under arbitrary key
// FDs remain hierarchical.
func TestChaseNeverBreaksHierarchy(t *testing.T) {
	base := &query.Query{
		Head: []string{"odate"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname"),
			query.Rel("Ord", "okey", "ckey", "odate"),
			query.Rel("Item", "okey", "ckey", "discount"),
		},
	}
	if !base.IsHierarchical() {
		t.Fatal("base must be hierarchical")
	}
	sets := []*Set{
		NewSet(),
		NewSet(FD{LHS: []string{"okey"}, RHS: []string{"ckey", "odate"}}),
		NewSet(FD{LHS: []string{"ckey"}, RHS: []string{"cname"}}),
		NewSet(
			FD{LHS: []string{"okey"}, RHS: []string{"ckey", "odate"}},
			FD{LHS: []string{"ckey"}, RHS: []string{"cname"}},
		),
	}
	for i, s := range sets {
		if red := Reduct(base, s); !red.IsHierarchical() {
			t.Errorf("set %d: reduct became non-hierarchical: %v", i, red)
		}
	}
}

func TestNonHierarchicalReductReported(t *testing.T) {
	// The prototypical hard query with no helpful FDs stays hard.
	q := &query.Query{
		Name: "hard",
		Rels: []query.RelRef{
			query.Rel("R", "a"),
			query.Rel("S", "a", "b"),
			query.Rel("T", "b"),
		},
	}
	if _, _, err := HierarchicalReduct(q, NewSet()); err == nil {
		t.Error("R(a) ⋈ S(a,b) ⋈ T(b) must not admit a hierarchical reduct without FDs")
	}
	// With a → b (S's a is a key), it becomes hierarchical.
	if _, _, err := HierarchicalReduct(q, NewSet(FD{LHS: []string{"a"}, RHS: []string{"b"}})); err != nil {
		t.Errorf("a→b should rescue the query: %v", err)
	}
}

func TestFDStrings(t *testing.T) {
	f := FD{Rel: "Ord", LHS: []string{"okey"}, RHS: []string{"ckey"}}
	if got := f.String(); got != "Ord: okey → ckey" {
		t.Errorf("FD.String() = %q", got)
	}
	s := NewSet(f)
	if got := s.String(); !strings.Contains(got, "Ord: okey → ckey") {
		t.Errorf("Set.String() = %q", got)
	}
	if NewSet().String() != "{}" {
		t.Error("empty set string wrong")
	}
}
