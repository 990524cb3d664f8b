package signature

import (
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/query"
)

// paperString strips spaces so assertions can use the paper's compact
// notation ((Cust*(Ord*Item*)*)*).
func paperString(s Sig) string { return strings.ReplaceAll(s.String(), " ", "") }

func introQ() *query.Query {
	return &query.Query{
		Name: "Q",
		Head: []string{"odate"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname"),
			query.Rel("Ord", "okey", "ckey", "odate"),
			query.Rel("Item", "okey", "discount", "ckey"),
		},
	}
}

func introQPrime() *query.Query {
	return &query.Query{
		Name: "Q'",
		Head: []string{"odate"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname"),
			query.Rel("Ord", "okey", "ckey", "odate"),
			query.Rel("Item", "okey", "discount"),
		},
	}
}

func tpchKeys() *fd.Set {
	return fd.NewSet(
		fd.FD{Rel: "Ord", LHS: []string{"okey"}, RHS: []string{"ckey", "odate"}},
		fd.FD{Rel: "Cust", LHS: []string{"ckey"}, RHS: []string{"cname"}},
	)
}

// TestIntroSignaturePlain: "The query signature in our example is
// (Cust*(Ord*Item*)*)*" (§I).
func TestIntroSignaturePlain(t *testing.T) {
	s, err := Plain(introQ())
	if err != nil {
		t.Fatal(err)
	}
	if got := paperString(s); got != "(Cust*(Ord*Item*)*)*" {
		t.Errorf("plain signature = %s, want (Cust*(Ord*Item*)*)*", got)
	}
}

// TestIntroSignatureWithKeys: "in case ckey and okey are keys ... our
// signature becomes (Cust(Ord Item*)*)*" (Ex. III.2).
func TestIntroSignatureWithKeys(t *testing.T) {
	s, err := WithFDs(introQ(), tpchKeys())
	if err != nil {
		t.Fatal(err)
	}
	if got := paperString(s); got != "(Cust(OrdItem*)*)*" {
		t.Errorf("FD signature = %s, want (Cust(Ord Item*)*)*", got)
	}
}

// TestQPrimeSignatureUnderFDs: the intro's non-hierarchical Q' gets
// signature (Cust(Ord Item*)*)* under the TPC-H FDs.
func TestQPrimeSignatureUnderFDs(t *testing.T) {
	if _, err := Plain(introQPrime()); err == nil {
		t.Error("plain signature of Q' must fail (non-hierarchical)")
	}
	s, err := WithFDs(introQPrime(), tpchKeys())
	if err != nil {
		t.Fatal(err)
	}
	if got := paperString(s); got != "(Cust(OrdItem*)*)*" {
		t.Errorf("signature = %s, want (Cust(Ord Item*)*)*", got)
	}
	// Best falls back appropriately.
	b, err := Best(introQPrime(), tpchKeys())
	if err != nil || !Equal(b, s) {
		t.Errorf("Best should pick the FD signature: %v %v", b, err)
	}
	if _, err := Best(introQPrime(), fd.NewSet()); err == nil {
		t.Error("Best must fail when no signature exists")
	}
}

// TestExIV4Signatures: plain (Cust*(Ord*Item*)*)* vs FD-reduct
// Cust Ord Item* (Ex. IV.4; component order is ours, content must match).
func TestExIV4Signatures(t *testing.T) {
	q := &query.Query{
		Head: []string{"okey"},
		Rels: []query.RelRef{
			query.Rel("Item", "ckey", "okey", "discount"),
			query.Rel("Ord", "okey", "ckey", "odate"),
			query.Rel("Cust", "ckey", "cname"),
		},
	}
	plain, err := Plain(q)
	if err != nil {
		t.Fatal(err)
	}
	// Component order follows the query's relation order (Item before Ord).
	if got := paperString(plain); got != "(Cust*(Item*Ord*)*)*" && got != "((Item*Ord*)*Cust*)*" {
		t.Errorf("plain signature = %s", got)
	}
	refined, err := WithFDs(q, tpchKeys())
	if err != nil {
		t.Fatal(err)
	}
	// Cust Ord Item* up to component order: a flat concat of bare Cust,
	// bare Ord, and Item*.
	c, ok := refined.(Concat)
	if !ok || len(c) != 3 {
		t.Fatalf("refined signature should be a 3-way concat, got %s", refined)
	}
	var bare, starred []string
	for _, comp := range c {
		switch x := comp.(type) {
		case Table:
			bare = append(bare, string(x))
		case Star:
			starred = append(starred, paperString(x))
		}
	}
	if len(bare) != 2 || len(starred) != 1 || starred[0] != "Item*" {
		t.Errorf("refined = %s, want {Cust, Ord, Item*}", refined)
	}
}

func TestEqualAndConstructors(t *testing.T) {
	a := NewStar(NewConcat(Table("R"), NewStar(Table("S"))))
	b := NewStar(NewConcat(Table("R"), NewStar(Table("S"))))
	if !Equal(a, b) {
		t.Error("structurally equal signatures must be Equal")
	}
	if Equal(a, Table("R")) {
		t.Error("different shapes must not be Equal")
	}
	// (α*)* = α*.
	if got := NewStar(NewStar(Table("R"))); !Equal(got, NewStar(Table("R"))) {
		t.Errorf("(R*)* should normalize to R*, got %s", got)
	}
	// Singleton concat collapses.
	if got := NewConcat(Table("R")); !Equal(got, Table("R")) {
		t.Errorf("singleton concat should collapse, got %s", got)
	}
	// Nested concats flatten.
	got := NewConcat(NewConcat(Table("R"), Table("S")), Table("T"))
	if c, ok := got.(Concat); !ok || len(c) != 3 {
		t.Errorf("nested concat should flatten, got %s", got)
	}
}

func TestTables(t *testing.T) {
	s := NewStar(NewConcat(NewStar(Table("Cust")), NewStar(NewConcat(NewStar(Table("Ord")), NewStar(Table("Item"))))))
	got := Tables(s)
	want := []string{"Cust", "Ord", "Item"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Tables = %v, want %v", got, want)
	}
}

// TestMinimalCover reproduces Ex. III.4.
func TestMinimalCover(t *testing.T) {
	s, err := Plain(introQ())
	if err != nil {
		t.Fatal(err)
	}
	cov, ok := MinimalCover(s, []string{"Ord", "Item"})
	if !ok {
		t.Fatal("cover must exist")
	}
	if got := paperString(cov); got != "(Ord*Item*)*" {
		t.Errorf("minimal cover of {Ord,Item} = %s, want (Ord*Item*)*", got)
	}
	cov, ok = MinimalCover(s, []string{"Cust", "Ord"})
	if !ok || !Equal(cov, s) {
		t.Errorf("minimal cover of {Cust,Ord} should be s itself, got %s", cov)
	}
	if _, ok := MinimalCover(s, []string{"Nation"}); ok {
		t.Error("cover of absent table must report !ok")
	}
	cov, ok = MinimalCover(s, []string{"Item"})
	if !ok || paperString(cov) != "Item*" {
		t.Errorf("minimal cover of {Item} = %s, want Item*", cov)
	}
}

// TestOneScanExamples reproduces Ex. V.9.
func TestOneScanExamples(t *testing.T) {
	// (Cust(Ord Item*)*)* has the 1scan property.
	withKeys, err := WithFDs(introQ(), tpchKeys())
	if err != nil {
		t.Fatal(err)
	}
	if !OneScan(withKeys) {
		t.Errorf("%s should be 1scan", withKeys)
	}
	if n := NumScans(withKeys); n != 1 {
		t.Errorf("#scans(%s) = %d, want 1", withKeys, n)
	}
	// (Cust*(Ord*Item*)*)* does not.
	plain, err := Plain(introQ())
	if err != nil {
		t.Fatal(err)
	}
	if OneScan(plain) {
		t.Errorf("%s should not be 1scan", plain)
	}
	// R*S* (relational product) is 1scan.
	prod := NewConcat(NewStar(Table("R")), NewStar(Table("S")))
	if !OneScan(prod) {
		t.Errorf("R*S* should be 1scan")
	}
	// Nation1 Supp(Nation2(Cust(Ord Item*)*)*)* — TPC-H Q7's signature.
	q7 := NewConcat(
		Table("Nation1"),
		NewConcat(Table("Supp"), NewStar(NewConcat(
			Table("Nation2"), NewStar(NewConcat(
				Table("Cust"), NewStar(NewConcat(
					Table("Ord"), NewStar(Table("Item"))))))))))
	if !OneScan(q7) {
		t.Errorf("Q7 signature should be 1scan: %s", q7)
	}
}

// TestNumScansExV11: [(Cust*(Ord*Item*)*)*] needs three scans (Ex. V.11).
func TestNumScansExV11(t *testing.T) {
	plain, err := Plain(introQ())
	if err != nil {
		t.Fatal(err)
	}
	if n := NumScans(plain); n != 3 {
		t.Errorf("#scans = %d, want 3", n)
	}
	// (R*S*)* needs 2; ((R*S*)*(T*U*)*)* needs 4.
	rs := NewStar(NewConcat(NewStar(Table("R")), NewStar(Table("S"))))
	if n := NumScans(rs); n != 2 {
		t.Errorf("#scans((R*S*)*) = %d, want 2", n)
	}
	tu := NewStar(NewConcat(NewStar(Table("T")), NewStar(Table("U"))))
	both := NewStar(NewConcat(rs, tu))
	if n := NumScans(both); n != 4 {
		t.Errorf("#scans(((R*S*)*(T*U*)*)*) = %d, want 4", n)
	}
}

// TestScanTreePath reproduces Ex. V.12: (Cust(Ord Item*)*)* has 1scanTree
// path Cust -> Ord -> Item.
func TestScanTreePath(t *testing.T) {
	s, err := WithFDs(introQ(), tpchKeys())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildScanTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.String(); got != "Cust(Ord(Item))" {
		t.Errorf("1scanTree = %s, want Cust(Ord(Item))", got)
	}
	pre := tree.Preorder()
	if strings.Join(pre, ",") != "Cust,Ord,Item" {
		t.Errorf("preorder = %v", pre)
	}
}

// TestScanTreeBranching reproduces the second shape of Ex. V.12:
// (R1(R2 R3*)*(R4 R5*)*)* serializes as R1(R2(R3), R4(R5)).
func TestScanTreeBranching(t *testing.T) {
	s := NewStar(NewConcat(
		Table("R1"),
		NewStar(NewConcat(Table("R2"), NewStar(Table("R3")))),
		NewStar(NewConcat(Table("R4"), NewStar(Table("R5")))),
	))
	tree, err := BuildScanTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.String(); got != "R1(R2(R3), R4(R5))" {
		t.Errorf("1scanTree = %s, want R1(R2(R3), R4(R5))", got)
	}
	if got := strings.Join(tree.Preorder(), ","); got != "R1,R2,R3,R4,R5" {
		t.Errorf("preorder = %s", got)
	}
}

func TestScanTreeRejectsNonOneScan(t *testing.T) {
	plain, err := Plain(introQ())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildScanTree(plain); err == nil {
		t.Error("BuildScanTree must reject non-1scan signatures")
	}
}

// TestScanTreeProduct: a top-level product without a bare table, R*S* or
// T1*(T2 T3*)*, is rooted at a virtual node (Table "") whose children are
// the components' trees; the preorder skips it.
func TestScanTreeProduct(t *testing.T) {
	for _, tc := range []struct {
		sig       Sig
		tree, pre string
	}{
		{NewConcat(NewStar(Table("R")), NewStar(Table("S"))), "(R, S)", "R,S"},
		{NewConcat(NewStar(Table("T1")), NewStar(NewConcat(Table("T2"), NewStar(Table("T3"))))), "(T1, T2(T3))", "T1,T2,T3"},
	} {
		tree, err := BuildScanTree(tc.sig)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Table != "" || len(tree.Children) != 2 {
			t.Errorf("%s: root %q with %d children, want a virtual root with 2", tc.sig, tree.Table, len(tree.Children))
		}
		if got := tree.String(); got != tc.tree {
			t.Errorf("%s: tree = %s, want %s", tc.sig, got, tc.tree)
		}
		if got := strings.Join(tree.Preorder(), ","); got != tc.pre {
			t.Errorf("%s: preorder = %s, want %s", tc.sig, got, tc.pre)
		}
	}
}

// TestScheduleExV11: (Cust*(Ord*Item*)*)* aggregates [Ord*], then [Cust*],
// and leaves (Cust(Ord Item*)*)* for the final scan (Ex. V.11).
func TestScheduleExV11(t *testing.T) {
	plain, err := Plain(introQ())
	if err != nil {
		t.Fatal(err)
	}
	steps, final := Schedule(plain)
	var got []string
	for _, g := range steps {
		got = append(got, paperString(g))
	}
	if strings.Join(got, " ") != "Ord* Cust*" {
		t.Errorf("steps = %v, want [Ord* Cust*]", got)
	}
	if paperString(final) != "(Cust(OrdItem*)*)*" {
		t.Errorf("final = %s, want (Cust(Ord Item*)*)*", final)
	}
	if Rep(plain) != "Cust" {
		t.Errorf("Rep = %s, want Cust", Rep(plain))
	}
}

// TestCollapse: the operator's first occurrence in the signature becomes
// its representative — a starred table its own table, a composite star the
// root of its scheduled 1scanTree — and an absent one changes nothing.
func TestCollapse(t *testing.T) {
	full, err := Plain(introQ())
	if err != nil {
		t.Fatal(err)
	}
	if got := Collapse(full, NewStar(Table("Ord"))); paperString(got) != "(Cust*(OrdItem*)*)*" {
		t.Errorf("Collapse([Ord*]) = %s", got)
	}
	oi := NewStar(NewConcat(NewStar(Table("Ord")), NewStar(Table("Item"))))
	if got := Collapse(full, oi); paperString(got) != "(Cust*Ord)*" {
		t.Errorf("Collapse([(Ord*Item*)*]) = %s, want (Cust* Ord)*", got)
	}
	if same := Collapse(full, Table("Nope")); !Equal(same, full) {
		t.Errorf("Collapse of an absent operator changed the signature: %s", same)
	}
}

func TestStringRendering(t *testing.T) {
	s := NewStar(NewConcat(Table("Ord"), NewStar(Table("Item"))))
	if got := s.String(); got != "(Ord Item*)*" {
		t.Errorf("String = %q, want \"(Ord Item*)*\"", got)
	}
	if got := NewStar(Table("R")).String(); got != "R*" {
		t.Errorf("String = %q, want R*", got)
	}
}
