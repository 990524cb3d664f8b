package tpch

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
)

// rowsOf materializes a generated table's chunks as rows.
func rowsOf(pt *table.ProbTable) []table.Tuple {
	var rows []table.Tuple
	for _, c := range pt.Rel.Chunks {
		for i := 0; i < c.Rows(); i++ {
			row := make(table.Tuple, len(c.Cols))
			c.WriteRow(i, row)
			rows = append(rows, row)
		}
	}
	return rows
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.001, Seed: 42})
	b := Generate(Config{SF: 0.001, Seed: 42})
	if a.Item.Rel.Len() != b.Item.Rel.Len() {
		t.Fatalf("same seed must give same sizes: %d vs %d", a.Item.Rel.Len(), b.Item.Rel.Len())
	}
	ar, br := rowsOf(a.Item), rowsOf(b.Item)
	for i := 0; i < 10 && i < len(ar); i++ {
		if ar[i].String() != br[i].String() {
			t.Fatalf("row %d differs across runs with same seed", i)
		}
	}
	c := Generate(Config{SF: 0.001, Seed: 43})
	if rowsOf(c.Item)[0].String() == ar[0].String() {
		t.Error("different seeds should give different data")
	}
}

func TestGenerateScaling(t *testing.T) {
	small := Generate(Config{SF: 0.001, Seed: 1})
	big := Generate(Config{SF: 0.004, Seed: 1})
	if big.Cust.Rel.Len() <= small.Cust.Rel.Len() {
		t.Errorf("larger SF must give more customers: %d vs %d", big.Cust.Rel.Len(), small.Cust.Rel.Len())
	}
	if small.Region.Rel.Len() != 5 || small.Nation.Rel.Len() != 25 {
		t.Errorf("region/nation sizes fixed: %d/%d", small.Region.Rel.Len(), small.Nation.Rel.Len())
	}
	// Lineitems ≈ 40 per customer (10 orders × ~4 items).
	ratio := float64(small.Item.Rel.Len()) / float64(small.Ord.Rel.Len())
	if ratio < 2 || ratio > 7 {
		t.Errorf("items per order = %.1f, want ~4", ratio)
	}
}

func TestGeneratedProbabilitiesValid(t *testing.T) {
	d := Generate(Config{SF: 0.001, Seed: 7, ProbMin: 0.2, ProbMax: 0.9})
	if _, err := d.Assignment(); err != nil {
		t.Fatal(err)
	}
	for _, tb := range d.Tables() {
		pi := tb.Rel.Schema.ProbIndex(tb.Name)
		for _, row := range rowsOf(tb) {
			if row[pi].F < 0.2 || row[pi].F > 0.9 {
				t.Fatalf("%s probability %g outside configured bounds", tb.Name, row[pi].F)
			}
		}
	}
	if d.NumVars <= 0 {
		t.Error("NumVars not tracked")
	}
}

func TestVariablesGloballyUnique(t *testing.T) {
	d := Generate(Config{SF: 0.001, Seed: 3})
	seen := make(map[int64]bool)
	for _, tb := range d.Tables() {
		vi := tb.Rel.Schema.VarIndex(tb.Name)
		for _, row := range rowsOf(tb) {
			v := row[vi].I
			if seen[v] {
				t.Fatalf("variable %d reused across tuples", v)
			}
			seen[v] = true
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	d := Generate(Config{SF: 0.001, Seed: 5})
	nCust := int64(d.Cust.Rel.Len())
	ci := d.Ord.Rel.Schema.MustColIndex("ckey")
	for _, row := range rowsOf(d.Ord) {
		if row[ci].I < 0 || row[ci].I >= nCust {
			t.Fatalf("dangling ckey %d", row[ci].I)
		}
	}
	nOrd := int64(d.Ord.Rel.Len())
	oi := d.Item.Rel.Schema.MustColIndex("okey")
	for _, row := range rowsOf(d.Item) {
		if row[oi].I < 0 || row[oi].I >= nOrd {
			t.Fatalf("dangling okey %d", row[oi].I)
		}
	}
}

func TestCatalogEntriesValidate(t *testing.T) {
	cat := Catalog()
	if len(cat) < 24 {
		t.Fatalf("catalog has %d entries, expected the 22 queries + Boolean variants", len(cat))
	}
	for name, e := range cat {
		if e.Unsupported != "" {
			if e.Q != nil {
				t.Errorf("%s: unsupported entries must have no query", name)
			}
			continue
		}
		if err := e.Q.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if e.Boolean != (len(e.Q.Head) == 0) {
			t.Errorf("%s: Boolean flag inconsistent with head %v", name, e.Q.Head)
		}
	}
	for _, n := range append(fig9Queries(), fig10Queries()...) {
		if cat[n] == nil || cat[n].Q == nil {
			t.Errorf("figure query %s missing from catalog", n)
		}
	}
}

// TestQ7SignatureMatchesPaper: the FD-reduct of query 7 has the signature
// Nation1 Supp (Nation2(Cust(Ord Item*)*)*)* quoted in Ex. V.9.
func TestQ7SignatureMatchesPaper(t *testing.T) {
	e := Catalog()["7"]
	s, err := signature.WithFDs(e.Q, FDsFor(e))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(s.String(), " ", "")
	want := "Nation1Supp(Nation2(Cust(OrdItem*)*)*)*"
	if got != want {
		t.Errorf("Q7 signature = %s, want %s", got, want)
	}
	if !signature.OneScan(s) {
		t.Error("Q7's signature must have the 1scan property (Ex. V.9)")
	}
}

// TestCaseStudySectionVI checks the paper's §VI statements on the catalog:
// queries 2, 11, 18, 20, 21 need the TPC-H keys; queries 5, 8, 9 admit no
// hierarchical FD-reduct; 13 is unsupported; 22 reduces to a selection.
func TestCaseStudySectionVI(t *testing.T) {
	byName := make(map[string]classification)
	for _, c := range classify() {
		byName[c.Name] = c
	}
	for _, n := range []string{"2", "11", "18", "20", "7"} {
		c := byName[n]
		if c.HierNoFDs {
			t.Errorf("query %s should not be hierarchical without FDs", n)
		}
		if !c.HierWithFDs {
			t.Errorf("query %s must become hierarchical under the TPC-H keys", n)
		}
	}
	// Q21 carries its supplier key in the head, so it is hierarchical even
	// without FDs; it must of course stay tractable with them.
	if !byName["21"].HierWithFDs {
		t.Error("query 21 must be tractable under the TPC-H keys")
	}
	for _, n := range []string{"5", "8", "9"} {
		c := byName[n]
		if c.HierNoFDs || c.HierWithFDs {
			t.Errorf("query %s must stay intractable (§VI)", n)
		}
	}
	if byName["13"].Unsupported == "" {
		t.Error("query 13 must be marked unsupported (outer join)")
	}
	c22 := byName["22"]
	if !c22.HierNoFDs {
		t.Error("query 22 (a simple selection) must be trivially hierarchical")
	}
	// Hierarchical-without-FDs queries include 1, 3, 4, 10, 12, 15, 16 and
	// the single-table/two-table Boolean variants.
	for _, n := range []string{"1", "3", "4", "10", "12", "15", "16", "B17", "B19"} {
		if !byName[n].HierNoFDs {
			t.Errorf("query %s should be hierarchical without FDs", n)
		}
	}
	// FDs never hurt: everything hierarchical without FDs stays
	// hierarchical with them (Prop. IV.5).
	for n, c := range byName {
		if c.HierNoFDs && !c.HierWithFDs {
			t.Errorf("query %s lost tractability under FDs", n)
		}
	}
}

// TestFDsReduceScans: with the TPC-H keys the signatures of figure queries
// need at most as many scans, and query 18's drops to one (the paper's
// guiding example), as do those of Fig. 13's queries 2, 7, 11 and B3
// (§VII.3).
func TestFDsReduceScans(t *testing.T) {
	for _, c := range classify() {
		if c.HierNoFDs && c.HierWithFDs && c.NumScansWithFDs > c.NumScansNoFDs {
			t.Errorf("query %s: FDs increased scans %d -> %d", c.Name, c.NumScansNoFDs, c.NumScansWithFDs)
		}
	}
	byName := make(map[string]classification)
	for _, c := range classify() {
		byName[c.Name] = c
	}
	for _, n := range []string{"18", "2", "7", "11", "B3"} {
		if got := byName[n]; !got.OneScanWithFDs || got.NumScansWithFDs != 1 {
			t.Errorf("query %s must be single-scan under FDs, got %+v", n, got)
		}
	}
}

// TestFig9QueriesRunnable: every Fig. 9 query runs end-to-end with a lazy
// plan on a tiny instance.
func TestFig9QueriesRunnable(t *testing.T) {
	d := Generate(Config{SF: 0.002, Seed: 11})
	cat := d.Catalog()
	for _, n := range fig9Queries() {
		e := Catalog()[n]
		res, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Errorf("query %s: %v", n, err)
			continue
		}
		for _, row := range res.Rows.Rows {
			c := row[len(row)-1].F
			if c < 0 || c > 1+1e-9 {
				t.Errorf("query %s: confidence %g outside [0,1]", n, c)
			}
		}
	}
}

// TestAutoMatchesChosenStyle: over the whole supported catalog on an
// analyzed instance, an Auto run returns bit for bit what a direct run of
// the style it reports choosing returns — Auto adds a choice, never a plan
// of its own.
func TestAutoMatchesChosenStyle(t *testing.T) {
	cat := Generate(Config{SF: 0.002, Seed: 1}).Catalog()
	cat.Analyze()
	entries := Catalog()
	names := make([]string, 0, len(entries))
	for n, e := range entries {
		if e.Q != nil {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	for _, n := range names {
		e := entries[n]
		spec := plan.Spec{Style: plan.Auto, MC: prob.MCOptions{Seed: 1}}
		auto, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), spec)
		if err != nil {
			t.Errorf("query %s auto: %v", n, err)
			continue
		}
		chosen, err := plan.ParseStyle(auto.Stats.ChosenStyle)
		if err != nil {
			t.Errorf("query %s: auto reported chosen style %q: %v", n, auto.Stats.ChosenStyle, err)
			continue
		}
		spec.Style = chosen
		direct, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), spec)
		if err != nil {
			t.Errorf("query %s %v: %v", n, chosen, err)
			continue
		}
		if !slices.EqualFunc(auto.Rows.Rows, direct.Rows.Rows, slices.Equal[table.Tuple]) {
			t.Errorf("query %s: auto's answers differ from a direct %v run", n, chosen)
		}
	}
}

// TestFig10QueriesRunnable: every Fig. 10 query runs end-to-end lazily.
func TestFig10QueriesRunnable(t *testing.T) {
	d := Generate(Config{SF: 0.002, Seed: 12})
	cat := d.Catalog()
	for _, n := range fig10Queries() {
		e := Catalog()[n]
		res, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Errorf("query %s: %v", n, err)
			continue
		}
		if e.Boolean && res.Rows.Len() > 1 {
			t.Errorf("query %s: Boolean query returned %d rows", n, res.Rows.Len())
		}
	}
}

// TestPlanStylesAgreeOnTPCH: lazy, eager and hybrid agree on a non-trivial
// generated instance for representative queries.
func TestPlanStylesAgreeOnTPCH(t *testing.T) {
	d := Generate(Config{SF: 0.002, Seed: 13})
	cat := d.Catalog()
	for _, n := range []string{"4", "10", "12", "15", "18", "B17"} {
		e := Catalog()[n]
		lazy, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), plan.Spec{Style: plan.Lazy})
		if err != nil {
			t.Fatalf("%s lazy: %v", n, err)
		}
		for _, style := range []plan.Style{plan.Eager, plan.Hybrid} {
			res, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), plan.Spec{Style: style})
			if err != nil {
				t.Errorf("%s %v: %v", n, style, err)
				continue
			}
			if err := compareAnswers(lazy.Rows.Rows, res.Rows.Rows); err != nil {
				t.Errorf("%s: %v disagrees with lazy: %v", n, style, err)
			}
		}
	}
}

// compareAnswers checks two (head..., conf) row sets for equality modulo
// order, with a small numeric tolerance on the confidence column.
func compareAnswers(a, b []table.Tuple) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a), len(b))
	}
	key := func(r table.Tuple) string {
		parts := make([]string, len(r)-1)
		for i := range parts {
			parts[i] = r[i].String()
		}
		return strings.Join(parts, "|")
	}
	am := make(map[string]float64, len(a))
	for _, r := range a {
		am[key(r)] = r[len(r)-1].F
	}
	for _, r := range b {
		want, ok := am[key(r)]
		if !ok {
			return fmt.Errorf("unexpected tuple %v", r)
		}
		got := r[len(r)-1].F
		if d := got - want; d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("tuple %v: conf %g vs %g", r, got, want)
		}
	}
	return nil
}

func TestSigmaOrEmpty(t *testing.T) {
	if sigmaOrEmpty(nil) == nil {
		t.Error("nil should become empty set")
	}
	s := fd.NewSet()
	if sigmaOrEmpty(s) != s {
		t.Error("non-nil should pass through")
	}
}

// fig9Queries lists the catalog names of the paper's Fig. 9 comparison.
func fig9Queries() []string {
	return []string{"3", "10", "15", "16", "B17", "18", "20", "21"}
}

// fig10Queries lists the catalog names of the paper's Fig. 10 lazy-plan
// timings.
func fig10Queries() []string {
	return []string{"1", "B1", "2", "B3", "4", "B4", "B6", "7", "B10", "11", "B11", "12", "B12", "B14", "B15", "B16", "B18", "B19"}
}

// classification summarizes the §VI case study for one query.
type classification struct {
	Name            string
	Unsupported     string
	HierNoFDs       bool // hierarchical signature exists without FDs
	HierWithFDs     bool // hierarchical FD-reduct under the TPC-H keys
	OneScanWithFDs  bool
	NumScansNoFDs   int
	NumScansWithFDs int
}

// classify performs the static analysis of §VI over the whole catalog.
func classify() []classification {
	cat := Catalog()
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	slices.Sort(names)
	var out []classification
	for _, n := range names {
		e := cat[n]
		c := classification{Name: n, Unsupported: e.Unsupported}
		if e.Q != nil {
			if s, err := signature.Plain(e.Q); err == nil {
				c.HierNoFDs = true
				c.NumScansNoFDs = signature.NumScans(s)
			}
			sigma := FDsFor(e)
			if s, err := signature.WithFDs(e.Q, sigma); err == nil {
				c.HierWithFDs = true
				c.OneScanWithFDs = signature.OneScan(s)
				c.NumScansWithFDs = signature.NumScans(s)
			}
		}
		out = append(out, c)
	}
	return out
}
