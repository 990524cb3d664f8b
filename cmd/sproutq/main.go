// Command sproutq runs one named catalog query (a conjunctive subquery of a
// TPC-H query, see internal/tpch) against freshly generated data and prints
// the distinct answers with their confidences (exact; OBDD-compiled under
// -plan obdd; d-tree-decomposed under -plan dtree; or Monte Carlo estimates
// under -plan mc), plus the plan and signature used.
//
// Usage:
//
//	sproutq [-sf 0.005] [-seed 1] [-plan lazy|eager|hybrid|mystiq|mc|obdd|dtree|auto] [-workers 0] [-limit 20] [-explain] [-trace] [-listen addr] 18
//	sproutq -list
//
// -plan auto lets the cost-based planner pick the style from the catalog's
// ANALYZE statistics; -explain prints the logical plan IR (and, under auto,
// the per-style cost table) instead of running the query; -trace collects a
// per-operator execution trace during the run and prints it (with row
// counts, lineage shape, compilation detail and durations) after the stats.
//
// -listen addr serves the engine metrics (/metrics), liveness (/healthz)
// and Go profiling (/debug/pprof/) endpoints from before data generation
// on, feeds the run's counters into /metrics, and keeps serving after the
// answers are printed so a harness can scrape at leisure (kill the process
// to exit).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/conf"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "generator seed")
	planName := flag.String("plan", "lazy", "plan style: "+plan.StyleNames())
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial); confidences do not depend on it")
	limit := flag.Int("limit", 20, "max answer rows to print")
	list := flag.Bool("list", false, "list catalog queries and exit")
	explain := flag.Bool("explain", false, "print the logical plan (and auto's cost table) instead of running")
	trace := flag.Bool("trace", false, "collect a per-operator execution trace and print it after the stats")
	listen := flag.String("listen", "", "serve /metrics, /healthz and /debug/pprof on this address; keeps serving after the run (kill to exit)")
	flag.Parse()

	catalog := tpch.Catalog()
	if *list {
		names := make([]string, 0, len(catalog))
		for n := range catalog {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			e := catalog[n]
			if e.Unsupported != "" {
				fmt.Printf("%-5s unsupported: %s\n", n, e.Unsupported)
				continue
			}
			fmt.Printf("%-5s %s\n      %s\n", n, e.Q, e.Note)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sproutq [flags] <query-name>; see -list")
		os.Exit(2)
	}
	e := catalog[flag.Arg(0)]
	if e == nil {
		fail(fmt.Errorf("unknown query %q (see -list)", flag.Arg(0)))
	}
	if e.Unsupported != "" {
		fail(fmt.Errorf("query %s is unsupported: %s", e.Name, e.Unsupported))
	}

	style, err := plan.ParseStyle(*planName)
	if err != nil {
		fail(err)
	}

	// The endpoints come up before data generation so a harness can poll
	// /healthz from the moment the process starts.
	var metrics *obs.Registry
	if *listen != "" {
		metrics = obs.New()
		_, addr, err := obs.Serve(*listen, metrics)
		if err != nil {
			fail(err)
		}
		fmt.Printf("observability endpoints on http://%s (/metrics, /healthz, /debug/pprof/)\n", addr)
	}

	fmt.Printf("query %s: %s\n", e.Name, e.Q)
	d := tpch.Generate(tpch.Config{SF: *sf, Seed: *seed})
	if *explain {
		desc, err := plan.Explain(d.Catalog(), e.Q.Clone(), tpch.FDsFor(e), plan.Spec{Style: style})
		if err != nil {
			fail(err)
		}
		fmt.Println(desc)
		return
	}
	res, err := plan.Run(d.Catalog(), e.Q.Clone(), tpch.FDsFor(e), plan.Spec{Style: style, Workers: *workers, Trace: *trace, Metrics: metrics})
	if err != nil {
		fail(err)
	}
	fmt.Printf("plan: %s\n", res.Stats.Plan)
	if res.Stats.ChosenStyle != "" {
		fmt.Printf("auto chose: %s (estimated cost %.3g)\n", res.Stats.ChosenStyle, res.Stats.EstimatedCost)
	}
	fmt.Printf("signature: %s\n", res.Stats.Signature)
	fmt.Printf("answer tuples: %d, distinct: %d, operator scans: %d\n",
		res.Stats.AnswerTuples, res.Stats.DistinctTuples, res.Stats.Scans)
	if l := &res.Stats.Lineage; l.Tier == conf.TierMC {
		fmt.Printf("lineage tier mc: %d samples; %d exact, %d stopped, %d capped; estimates within ε = %g of the truth with probability 1−δ\n",
			l.Samples, l.ExactAnswers, l.Stopped, l.Capped, l.MaxEpsilon)
	} else if l.Tier != "" {
		fmt.Printf("lineage tier %s: effort %d, memo hits %d, misses %d; %d exact, %d bounded, %d stopped\n",
			l.Tier, l.Nodes, l.MemoHits, l.MemoMisses, l.ExactAnswers, l.Bounded, l.Stopped)
		if l.Bounded > 0 {
			fmt.Printf("certified bounds: every true confidence lies in [%g, %g], each within %g of its printed midpoint\n",
				l.LowerBound, l.UpperBound, l.MaxWidth/2)
		}
	}
	fmt.Printf("tuple time %.4fs, prob time %.4fs\n", res.Stats.TupleTime.Seconds(), res.Stats.ProbTime.Seconds())
	if res.Stats.Trace != nil {
		fmt.Println()
		fmt.Print(res.Stats.Trace.Render(true))
	}
	fmt.Println()

	for _, c := range res.Rows.Schema.Names() {
		fmt.Printf("%-24s", c)
	}
	fmt.Println()
	for i, row := range res.Rows.Rows {
		if i >= *limit {
			fmt.Printf("... (%d more rows)\n", res.Rows.Len()-*limit)
			break
		}
		for _, v := range row {
			fmt.Printf("%-24s", v.String())
		}
		fmt.Println()
	}

	if *listen != "" {
		// The server goroutine holds the process alive until it is killed.
		fmt.Println("query done; still serving observability endpoints (kill to exit)")
		select {}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sproutq:", err)
	os.Exit(1)
}
