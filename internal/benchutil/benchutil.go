// Package benchutil regenerates the paper's experiments (Figs. 9-13 and the
// §VI case-study table) on the TPC-H-like substrate. Each experiment is a
// function returning structured rows, shared by cmd/sprout-bench and the
// testing.B benchmarks at the repository root.
package benchutil

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/signature"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/tpch"
)

// timedRun executes a plan once for warm-up and then reports the best of
// `reps` timed executions — the paper reports warm-cache averages over ten
// identical runs (§VII); the minimum of a few runs is the standard
// low-variance equivalent at our scale.
func timedRun(catalog *plan.Catalog, q *query.Query, sigma *fd.Set, spec plan.Spec, reps int) (*plan.Result, time.Duration, error) {
	res, err := plan.Run(catalog, q.Clone(), sigma, spec)
	if err != nil {
		return nil, 0, err
	}
	best := res.Stats.Total()
	for i := 0; i < reps; i++ {
		r, err := plan.Run(catalog, q.Clone(), sigma, spec)
		if err != nil {
			return nil, 0, err
		}
		if t := r.Stats.Total(); t < best {
			best = t
			res = r
		}
	}
	return res, best, nil
}

// Fig9Row compares the three plan families on one query (paper Fig. 9).
type Fig9Row struct {
	Query      string
	MystiQ     time.Duration
	Eager      time.Duration
	Lazy       time.Duration
	MystiQErr  string // MystiQ runtime failures (§VII) are reported, not fatal
	LazyVsMyst float64
}

// Fig9 runs the lazy/eager/MystiQ comparison over the Fig. 9 queries.
func Fig9(d *tpch.Data) ([]Fig9Row, error) {
	catalog := d.Catalog()
	queries := tpch.Catalog()
	var rows []Fig9Row
	for _, name := range tpch.Fig9Queries() {
		e := queries[name]
		row := Fig9Row{Query: name}
		sigma := tpch.FDsFor(e)

		if _, best, err := timedRun(catalog, e.Q, sigma, plan.Spec{Style: plan.SafeMystiQ}, 2); err != nil {
			row.MystiQErr = err.Error()
		} else {
			row.MystiQ = best
		}
		_, best, err := timedRun(catalog, e.Q, sigma, plan.Spec{Style: plan.Eager}, 2)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s eager: %w", name, err)
		}
		row.Eager = best
		_, best, err = timedRun(catalog, e.Q, sigma, plan.Spec{Style: plan.Lazy}, 2)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s lazy: %w", name, err)
		}
		row.Lazy = best
		if row.Lazy > 0 && row.MystiQ > 0 {
			row.LazyVsMyst = float64(row.MystiQ) / float64(row.Lazy)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10Row splits a lazy plan's time into answer-tuple computation and
// probability computation (paper Fig. 10).
type Fig10Row struct {
	Query     string
	TupleTime time.Duration
	ProbTime  time.Duration
	Answers   int64
	Distinct  int64
}

// Fig10 times lazy plans for the remaining 18 queries.
func Fig10(d *tpch.Data) ([]Fig10Row, error) {
	catalog := d.Catalog()
	queries := tpch.Catalog()
	var rows []Fig10Row
	for _, name := range tpch.Fig10Queries() {
		e := queries[name]
		res, _, err := timedRun(catalog, e.Q, tpch.FDsFor(e), plan.Spec{Style: plan.Lazy}, 2)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", name, err)
		}
		rows = append(rows, Fig10Row{
			Query:     name,
			TupleTime: res.Stats.TupleTime,
			ProbTime:  res.Stats.ProbTime,
			Answers:   res.Stats.AnswerTuples,
			Distinct:  res.Stats.DistinctTuples,
		})
	}
	return rows, nil
}

// Fig11Row is one selectivity point of the lazy/eager rendez-vous
// experiment (paper Fig. 11).
type Fig11Row struct {
	Selectivity float64
	LazyA       time.Duration
	EagerA      time.Duration
	LazyB       time.Duration
	EagerB      time.Duration
}

// fig11QueryA is A = π_name(Nation ⋈_nkey σ_acctbal<ct(Supp) ⋈_skey Psupp).
func fig11QueryA(ct float64) *query.Query {
	return &query.Query{
		Name: "A",
		Head: []string{"nname"},
		Rels: []query.RelRef{
			query.Rel("Nation", "nkey", "nname", "rkey"),
			query.Rel("Supp", "skey", "sname", "nkey", "sacctbal"),
			query.Rel("Psupp", "pkey", "skey", "scost", "aqty"),
		},
		Sels: []query.Selection{
			{Rel: "Supp", Attr: "sacctbal", Op: engine.OpLt, Val: table.Float(ct)},
		},
	}
}

// fig11QueryB is B = π_{ckey,name}(Cust ⋈_ckey σ_{odate<'1996-09-01', price<ct}(Ord)).
func fig11QueryB(ct float64) *query.Query {
	return &query.Query{
		Name: "B",
		Head: []string{"ckey", "cname"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname", "nkey", "cacctbal", "mkt"),
			query.Rel("Ord", "okey", "ckey", "odate", "oprice", "opri"),
		},
		Sels: []query.Selection{
			{Rel: "Ord", Attr: "odate", Op: engine.OpLt, Val: table.Str("1996-09-01")},
			{Rel: "Ord", Attr: "oprice", Op: engine.OpLt, Val: table.Float(ct)},
		},
	}
}

// Fig11 sweeps the selectivity of the constant selections from lo to hi in
// the given number of points and times lazy vs eager plans for queries A
// and B. Selectivity p means ct is chosen so that ≈ p·n tuples qualify
// (both filtered attributes are uniformly distributed by the generator).
func Fig11(d *tpch.Data, points int) ([]Fig11Row, error) {
	catalog := d.Catalog()
	sigma := tpch.FDs()
	var rows []Fig11Row
	for i := 0; i < points; i++ {
		p := float64(i+1) / float64(points+1)
		// sacctbal is uniform in [-999.99, 9999]; oprice in [1000, 455000].
		ctA := -999.99 + p*(9999.0-(-999.99))
		ctB := 1000 + p*454000
		row := Fig11Row{Selectivity: p}
		for _, style := range []plan.Style{plan.Lazy, plan.Eager} {
			_, best, err := timedRun(catalog, fig11QueryA(ctA), sigma, plan.Spec{Style: style}, 1)
			if err != nil {
				return nil, fmt.Errorf("fig11 A %v: %w", style, err)
			}
			if style == plan.Lazy {
				row.LazyA = best
			} else {
				row.EagerA = best
			}
			_, best, err = timedRun(catalog, fig11QueryB(ctB), sigma, plan.Spec{Style: style}, 1)
			if err != nil {
				return nil, fmt.Errorf("fig11 B %v: %w", style, err)
			}
			if style == plan.Lazy {
				row.LazyB = best
			} else {
				row.EagerB = best
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12Row compares hybrid plans against the extremes (paper Fig. 12).
type Fig12Row struct {
	Query       string
	Eager       time.Duration
	Lazy        time.Duration
	Hybrid      time.Duration
	EagerHybrid float64
	LazyHybrid  float64
}

// fig12QueryC is C = π_{ckey,name}(Cust ⋈_ckey σ_{odate<'1992-01-31'}(Ord) ⋈_okey Item).
func fig12QueryC() *query.Query {
	return &query.Query{
		Name: "C",
		Head: []string{"ckey", "cname"},
		Rels: []query.RelRef{
			query.Rel("Cust", "ckey", "cname", "nkey", "cacctbal", "mkt"),
			query.Rel("Ord", "okey", "ckey", "odate", "oprice", "opri"),
			query.Rel("Item", "okey", "pkey", "skey", "qty", "price", "discount", "sdate", "smode", "rflag"),
		},
		Sels: []query.Selection{
			{Rel: "Ord", Attr: "odate", Op: engine.OpLt, Val: table.Str("1992-01-31")},
		},
	}
}

// fig12QueryD is D = π_nkey(Nation ⋈_nkey σ_acctbal<600(Supp) ⋈_skey Psupp).
func fig12QueryD() *query.Query {
	q := fig11QueryA(600)
	q.Name = "D"
	q.Head = []string{"nkey"}
	return q
}

// Fig12 times eager, lazy and hybrid plans for queries C and D.
func Fig12(d *tpch.Data) ([]Fig12Row, error) {
	catalog := d.Catalog()
	sigma := tpch.FDs()
	var rows []Fig12Row
	for _, q := range []*query.Query{fig12QueryC(), fig12QueryD()} {
		row := Fig12Row{Query: q.Name}
		for _, style := range []plan.Style{plan.Eager, plan.Lazy, plan.Hybrid} {
			_, best, err := timedRun(catalog, q, sigma, plan.Spec{Style: style, HybridPrefix: 2}, 2)
			if err != nil {
				return nil, fmt.Errorf("fig12 %s %v: %w", q.Name, style, err)
			}
			switch style {
			case plan.Eager:
				row.Eager = best
			case plan.Lazy:
				row.Lazy = best
			case plan.Hybrid:
				row.Hybrid = best
			}
		}
		if row.Hybrid > 0 {
			row.EagerHybrid = float64(row.Eager) / float64(row.Hybrid)
			row.LazyHybrid = float64(row.Lazy) / float64(row.Hybrid)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig13Row quantifies the effect of FDs on the operator (paper Fig. 13).
type Fig13Row struct {
	Query      string
	SeqScan    time.Duration
	Sort       time.Duration
	OpNoFDs    time.Duration
	OpWithFDs  time.Duration
	ScansNoFDs int
	ScansFDs   int
	Answers    int64
	Distinct   int64
}

// Fig13 measures, per query: a sequential scan of the materialized answer,
// one sort in the operator's order, and the confidence operator with the
// conservative (all-starred, "no FDs") signature vs. the FD-refined one.
func Fig13(d *tpch.Data) ([]Fig13Row, error) {
	catalog := d.Catalog()
	queries := tpch.Catalog()
	var rows []Fig13Row
	for _, name := range []string{"2", "7", "11", "B3"} {
		e := queries[name]
		sigma := tpch.FDsFor(e)
		refined, err := signature.WithFDs(e.Q, sigma)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", name, err)
		}
		conservative := signature.Conservative(refined)

		answer, err := plan.Answer(catalog, e.Q)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s answer: %w", name, err)
		}
		row := Fig13Row{Query: name, Answers: int64(answer.Len())}

		// Sequential scan of the materialized answer.
		t0 := stopwatchStart()
		scanned, err := engine.Count(engine.NewMemScan(answer))
		if err != nil {
			return nil, err
		}
		_ = scanned
		row.SeqScan = stopwatchSplit(t0)

		// One sort in the operator's order (all columns as key is a fair
		// stand-in: data columns followed by variable columns).
		allCols := make([]int, answer.Schema.Len())
		for i := range allCols {
			allCols[i] = i
		}
		t0 = stopwatchStart()
		sorter := storage.NewKeySorter(allCols, 0, "")
		for _, r := range answer.Rows {
			if err := sorter.Add(r); err != nil {
				return nil, err
			}
		}
		it, err := sorter.Finish()
		if err != nil {
			return nil, err
		}
		for {
			_, ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		it.Close()
		row.Sort = stopwatchSplit(t0)

		// Operator without FD refinement (conservative signature).
		t0 = stopwatchStart()
		_, stats, err := conf.ComputeStats(cloneRel(answer), conservative, conf.Options{})
		if err != nil {
			return nil, fmt.Errorf("fig13 %s no-FD operator: %w", name, err)
		}
		row.OpNoFDs = stopwatchSplit(t0)
		row.ScansNoFDs = stats.Scans

		// Operator with the FD-refined signature.
		t0 = stopwatchStart()
		out, stats, err := conf.ComputeStats(cloneRel(answer), refined, conf.Options{})
		if err != nil {
			return nil, fmt.Errorf("fig13 %s FD operator: %w", name, err)
		}
		row.OpWithFDs = stopwatchSplit(t0)
		row.ScansFDs = stats.Scans
		row.Distinct = int64(out.Len())
		rows = append(rows, row)
	}
	return rows, nil
}

func cloneRel(r *table.Relation) *table.Relation {
	c := *r
	return &c
}

// CaseStudy renders the §VI classification of the query catalog.
func CaseStudy() string {
	var b strings.Builder
	cls := tpch.Classify()
	slices.SortFunc(cls, func(a, b tpch.Classification) int { return strings.Compare(a.Name, b.Name) })
	fmt.Fprintf(&b, "%-5s %-10s %-10s %-8s %-7s %s\n", "query", "hier(noFD)", "hier(FDs)", "1scan", "#scans", "signature with FDs")
	hierNo, hierFD := 0, 0
	for _, c := range cls {
		if c.Unsupported != "" {
			fmt.Fprintf(&b, "%-5s unsupported: %s\n", c.Name, c.Unsupported)
			continue
		}
		if c.HierNoFDs {
			hierNo++
		}
		if c.HierWithFDs {
			hierFD++
		}
		fmt.Fprintf(&b, "%-5s %-10v %-10v %-8v %-7d %s\n",
			c.Name, c.HierNoFDs, c.HierWithFDs, c.OneScanWithFDs, c.NumScansWithFDs, c.SignatureWithFDs)
	}
	fmt.Fprintf(&b, "\nhierarchical without FDs: %d; with TPC-H keys: %d (of %d evaluable entries)\n",
		hierNo, hierFD, len(cls))
	return b.String()
}
