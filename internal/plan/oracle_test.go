package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/table"
)

// oracleRel describes one relation of a generated instance: integer
// attributes over small domains (so joins hit), rows every instance has
// (all with probability fixedP), and how many random rows may come on top.
type oracleRel struct {
	name   string
	attrs  []string
	dom    []int
	fixed  [][]int64
	fixedP float64
	extra  int
}

// oracleShapes are the hierarchical query shapes the oracle test draws
// databases for; every instance holds at most 14 tuples, so each answer's
// lineage can be checked by possible-world enumeration.
var oracleShapes = []struct {
	name string
	q    *query.Query
	rels []oracleRel
}{
	{
		// The Introduction's query, with two orders of one customer on one
		// date: the case where a π^ind[ckey,okey,odate] under ⋈[ckey]
		// (instead of Fig. 2's π^ind[ckey,odate]) counts the customer twice
		// — 1-(1-.5·.9)² = 0.70 where the truth is .5·(1-.1²) = 0.495.
		name: "intro-two-orders",
		q: &query.Query{Name: "intro", Head: []string{"odate"},
			Rels: []query.RelRef{query.Rel("Cust", "ckey"), query.Rel("Ord", "okey", "ckey", "odate"), query.Rel("Item", "okey", "discount", "ckey")},
			Sels: []query.Selection{{Rel: "Item", Attr: "discount", Op: engine.OpGt, Val: table.Int(0)}}},
		rels: []oracleRel{
			{"Cust", []string{"ckey"}, []int{2}, [][]int64{{1}}, 0.5, 1},
			{"Ord", []string{"okey", "ckey", "odate"}, []int{4, 2, 2}, [][]int64{{1, 1, 1}, {2, 1, 1}}, 0.9, 2},
			{"Item", []string{"okey", "discount", "ckey"}, []int{4, 2, 2}, [][]int64{{1, 1, 1}, {2, 1, 1}}, 1, 3},
		},
	},
	{
		// TPC-H query 10's shape: the root join attribute ckey is in the
		// head, so the tree is {}({nkey}(Cust,Nation),{okey}(Ord,Item)) and
		// the inner label okey is wider than its parent's.
		name: "q10-shape",
		q: &query.Query{Name: "q10s", Head: []string{"ckey", "nname"},
			Rels: []query.RelRef{query.Rel("Cust", "ckey", "nkey"), query.Rel("Nation", "nkey", "nname"), query.Rel("Ord", "okey", "ckey"), query.Rel("Item", "okey", "flag")}},
		rels: []oracleRel{
			{"Cust", []string{"ckey", "nkey"}, []int{2, 2}, [][]int64{{1, 1}}, 0.5, 1},
			{"Nation", []string{"nkey", "nname"}, []int{2, 2}, [][]int64{{1, 1}}, 1, 1},
			{"Ord", []string{"okey", "ckey"}, []int{4, 2}, [][]int64{{1, 1}, {2, 1}}, 0.9, 2},
			{"Item", []string{"okey", "flag"}, []int{4, 2}, [][]int64{{1, 1}, {2, 1}}, 1, 3},
		},
	},
	{
		name: "star",
		q: &query.Query{Name: "star", Head: []string{"b"},
			Rels: []query.RelRef{query.Rel("R", "a", "b"), query.Rel("S", "a", "c"), query.Rel("T", "a", "d")}},
		rels: []oracleRel{
			{"R", []string{"a", "b"}, []int{2, 2}, nil, 0, 4},
			{"S", []string{"a", "c"}, []int{2, 3}, nil, 0, 4},
			{"T", []string{"a", "d"}, []int{2, 3}, nil, 0, 4},
		},
	},
	{
		name: "boolean",
		q: &query.Query{Name: "bool", Head: nil,
			Rels: []query.RelRef{query.Rel("Cust", "ckey"), query.Rel("Ord", "okey", "ckey"), query.Rel("Item", "okey", "ckey")}},
		rels: []oracleRel{
			{"Cust", []string{"ckey"}, []int{2}, nil, 0, 3},
			{"Ord", []string{"okey", "ckey"}, []int{3, 2}, nil, 0, 5},
			{"Item", []string{"okey", "ckey"}, []int{3, 2}, nil, 0, 6},
		},
	},
}

// oracleCatalog draws one tuple-independent database for the relations:
// the fixed rows plus up to extra distinct random ones each, probabilities uniform with
// the endpoints mixed in — certain tuples, and nearly impossible ones (the
// data model admits (0,1]).
func oracleCatalog(r *rand.Rand, rels []oracleRel) *Catalog {
	cat := NewCatalog()
	next := prob.Var(1)
	for _, rel := range rels {
		cols := make([]table.Column, len(rel.attrs))
		for i, a := range rel.attrs {
			cols[i] = table.DataCol(a, table.KindInt)
		}
		pt := table.NewProbTable(rel.name, cols...)
		rows := append([][]int64(nil), rel.fixed...)
		for i, n := 0, 1+r.Intn(rel.extra); i < n; i++ {
			row := make([]int64, len(rel.attrs))
			for j, d := range rel.dom {
				row[j] = int64(1 + r.Intn(d))
			}
			// Relations are sets: a repeated data tuple is dropped.
			if !slices.ContainsFunc(rows, func(have []int64) bool { return slices.Equal(have, row) }) {
				rows = append(rows, row)
			}
		}
		for i, row := range rows {
			p := 1 - r.Float64()
			switch r.Intn(8) {
			case 0:
				p = 1e-9
			case 1:
				p = 1
			}
			if i < len(rel.fixed) {
				p = rel.fixedP
			}
			vals := make([]table.Value, len(row))
			for j, v := range row {
				vals[j] = table.Int(v)
			}
			pt.MustAddRow(next, p, vals...)
			next++
		}
		cat.MustAdd(pt)
	}
	return cat
}

// oracleTruth is the possible-worlds ground truth of q on cat: each
// answer's lineage, collected from the lazy answer relation, evaluated by
// world enumeration. Answers are keyed by their head values.
func oracleTruth(t *testing.T, cat *Catalog, q *query.Query) map[string]float64 {
	t.Helper()
	answer, err := Answer(cat, q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	lin, err := conf.CollectLineage(answer)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string]float64, len(lin.Keys))
	for i, key := range lin.Keys {
		p, err := prob.ProbByWorlds(lin.DNFs[i], lin.Assign)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]string, len(q.Head))
		for j, h := range q.Head {
			parts[j] = key[lin.Schema.MustColIndex(h)].String()
		}
		truth[strings.Join(parts, "|")] = p
	}
	return truth
}

// TestParallelQueryOracle checks whole queries against possible-world
// enumeration: on seeded small databases over four hierarchical shapes the
// exact styles and the OBDD and d-tree tiers (their answers streamed into
// lineage collection) agree with the truth to 1e-9 and MystiQ's safe plans
// to 2e-3 per independent projection (its aggregate's 1.001 fudge costs up
// to 1e-3 per member of a group, and groups here rarely have over two), for
// one, two and four workers, ungoverned and under a memory budget that
// turns every join into a grace join with a sort budget that spills every
// sort — where the lineage tiers' shrunk budgets may leave certified
// bounds, each answer then within half their width.
func TestParallelQueryOracle(t *testing.T) {
	const instances = 6
	sawGrace, sawSpill, sawLineageGrace := false, false, false
	for _, shape := range oracleShapes {
		for seed := int64(0); seed < instances; seed++ {
			cat := oracleCatalog(rand.New(rand.NewSource(seed)), shape.rels)
			truth := oracleTruth(t, cat, shape.q)
			for _, style := range []Style{Lazy, Eager, Hybrid, SafeMystiQ, OBDD, DTree} {
				for _, workers := range []int{1, 2, 4} {
					for _, governed := range []bool{false, true} {
						// The lineage styles' budgets shrink to the governor's
						// headroom, so under it they may report certified
						// bounds instead of failing.
						lineage := style == OBDD || style == DTree
						spec := Spec{Style: style, Workers: workers, RequireExact: !lineage}
						spec.Conf.TmpDir = t.TempDir()
						if governed {
							// Every reservation is denied, and a run holds
							// two rows: instances this small spill only so.
							spec.MemBudget, spec.Conf.SortBudget = 1, 2
						}
						name := fmt.Sprintf("%s seed=%d %v workers=%d governed=%v", shape.name, seed, style, workers, governed)
						res, err := Run(cat, shape.q.Clone(), fd.NewSet(), spec)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						tol := 1e-9
						switch {
						case style == SafeMystiQ:
							tol = 2e-3 * float64(res.Stats.Scans)
							sawGrace = sawGrace || res.Stats.GraceJoins > 0
							sawSpill = sawSpill || res.Stats.SpilledRuns > 0
						case lineage:
							if res.Stats.Approximate && !governed {
								t.Errorf("%s: ungoverned run is not exact: %s", name, res.Stats.Plan)
							}
							tol += res.Stats.Lineage.MaxWidth / 2
							sawLineageGrace = sawLineageGrace || res.Stats.GraceJoins > 0
						}
						if res.Rows.Len() != len(truth) {
							t.Errorf("%s: %d answers, oracle has %d", name, res.Rows.Len(), len(truth))
							continue
						}
						for _, row := range res.Rows.Rows {
							parts := make([]string, len(row)-1)
							for i, v := range row[:len(row)-1] {
								parts[i] = v.String()
							}
							key := strings.Join(parts, "|")
							want, ok := truth[key]
							if got := row[len(row)-1].F; !ok || !prob.ApproxEqual(got, want, tol) {
								t.Errorf("%s: answer %q conf %g, oracle %g (tolerance %g)", name, key, got, want, tol)
							}
						}
					}
				}
			}
		}
	}
	if !sawGrace || !sawSpill || !sawLineageGrace {
		t.Errorf("the governed axis is vacuous: MystiQ grace join seen %v, spilled π^ind run seen %v; lineage-tier grace join seen %v",
			sawGrace, sawSpill, sawLineageGrace)
	}
}
