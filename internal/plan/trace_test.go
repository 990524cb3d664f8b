package plan

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/dtree"
	"repro/internal/fd"
	"repro/internal/obs"
	"repro/internal/prob"
	"repro/internal/storage"
)

// TestStatsLadderPopulation pins the Stats population contract across every
// plan style and every rung of the exact styles' fallback ladder: whichever
// tier produces the result must report its timings, the operator scan count
// and, for a lineage tier, its own record in Stats.Lineage (named by Tier,
// with OBDD nodes, d-tree steps or Monte Carlo samples) — and only its own,
// equal to the record the answering rung reports run as a style of its
// own; other plans report no record. Lineage tiers report Scans = 1, the
// lineage-collection grouping pass; a safe plan reports one scan and one
// sort per independent projection, timed as probability time.
func TestStatsLadderPopulation(t *testing.T) {
	type tc struct {
		name string
		hard bool // run the signature-less hard query instead of introQ
		spec Spec
		tier string // "sortscan" | "safe" | "obdd" | "dtree" | "mc"
	}
	cases := []tc{
		{name: "lazy", spec: Spec{Style: Lazy}, tier: "sortscan"},
		{name: "eager", spec: Spec{Style: Eager}, tier: "sortscan"},
		{name: "hybrid", spec: Spec{Style: Hybrid, HybridPrefix: 2}, tier: "sortscan"},
		{name: "mystiq", spec: Spec{Style: SafeMystiQ}, tier: "safe"},
		{name: "obdd", spec: Spec{Style: OBDD}, tier: "obdd"},
		{name: "dtree", spec: Spec{Style: DTree}, tier: "dtree"},
		{name: "mc", spec: Spec{Style: MonteCarlo, MC: prob.MCOptions{Seed: 1}}, tier: "mc"},
		{name: "auto", spec: Spec{Style: Auto}, tier: "sortscan"},
		// The fallback ladder on the hard query: default budgets land on the
		// OBDD rung; starving the OBDD drops to the d-tree rung; starving
		// both drops to Monte Carlo.
		{name: "ladder-obdd", hard: true, spec: Spec{Style: Lazy}, tier: "obdd"},
		{name: "ladder-dtree", hard: true,
			spec: Spec{Style: Lazy, Compile: dtree.Options{NodeBudget: ladderDTreeBudget}}, tier: "dtree"},
		{name: "ladder-mc", hard: true,
			spec: Spec{Style: Lazy, Compile: dtree.Options{NodeBudget: 1},
				MC: prob.MCOptions{Seed: 1}}, tier: "mc"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var res *Result
			var err error
			if c.hard {
				res, err = Run(hardDB(rand.New(rand.NewSource(1))), hardQuery(), fd.NewSet(), c.spec)
			} else {
				cat, _ := fig1Catalog()
				res, err = Run(cat, introQ(), tpchFDs(), c.spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if s.AnswerTuples <= 0 || s.DistinctTuples <= 0 {
				t.Errorf("tuple counts not populated: answers=%d distinct=%d", s.AnswerTuples, s.DistinctTuples)
			}
			// TupleTime alone can round to ~0 on the tiny fixtures, but the
			// run as a whole takes measurable time on every tier.
			if s.TupleTime+s.ProbTime <= 0 {
				t.Errorf("timings not populated: tuple=%v prob=%v", s.TupleTime, s.ProbTime)
			}
			if s.Scans <= 0 {
				t.Errorf("Scans not populated: %d", s.Scans)
			}
			lineageTier := c.tier == "obdd" || c.tier == "dtree" || c.tier == "mc"
			if lineageTier && s.Scans != 1 {
				t.Errorf("lineage tiers report the single grouping pass, got Scans=%d", s.Scans)
			}
			if c.tier == "safe" && (s.Sorts != s.Scans || s.ProbTime <= 0) {
				t.Errorf("safe plans sort once per π^ind and time it: scans=%d sorts=%d prob=%v", s.Scans, s.Sorts, s.ProbTime)
			}
			// The record is exactly the producing tier's: its name, its
			// effort and, for the compilation tiers, its memo probes.
			// Refused ladder rungs must not leak theirs into it.
			l := s.Lineage
			if !lineageTier {
				if l != (conf.TierStats{}) {
					t.Errorf("%s plan reports a lineage record %+v", c.tier, l)
				}
			} else if l.Tier != c.tier || l.Effort() <= 0 || l.Clauses <= 0 {
				t.Errorf("record %+v, want tier %s with effort and clauses", l, c.tier)
			}
			if (l.Nodes > 0) != (c.tier == "obdd" || c.tier == "dtree") || (l.Samples > 0) != (c.tier == "mc") {
				t.Errorf("%s record: nodes=%d samples=%d", c.tier, l.Nodes, l.Samples)
			}
			if (c.tier == "obdd" || c.tier == "dtree") && l.MemoHits+l.MemoMisses <= 0 {
				t.Errorf("%s tier should report memo probes, got hits=%d misses=%d", c.tier, l.MemoHits, l.MemoMisses)
			}
			if c.hard {
				// The answering rung run as a style of its own reports the
				// same record: nothing of a refused rung is added to it.
				direct := c.spec
				direct.Style = map[string]Style{"obdd": OBDD, "dtree": DTree, "mc": MonteCarlo}[c.tier]
				d, err := Run(hardDB(rand.New(rand.NewSource(1))), hardQuery(), fd.NewSet(), direct)
				if err != nil {
					t.Fatal(err)
				}
				dl := d.Stats.Lineage
				dl.HdrRecycled, l.HdrRecycled = 0, 0 // sync.Pool-scheduling dependent
				if dl != l {
					t.Errorf("ladder record %+v, the %s style's %+v", l, c.tier, dl)
				}
			}
			if c.tier == "mc" && !s.Approximate {
				t.Error("Monte Carlo results must be flagged Approximate")
			}
		})
	}
}

// TestLadderCountsRefusedEffort: a ladder rung that refuses reports the
// effort it spent — on its trace span (TestTraceGolden) and in its tier's
// counter: the d-tree ladder's obdd_nodes_total is the refused OBDD rung's
// effort, beside the d-tree record's dtree_nodes_total, and the Monte Carlo
// ladder counts both refused rungs. Stats.Lineage stays the answering
// rung's record (TestStatsLadderPopulation).
func TestLadderCountsRefusedEffort(t *testing.T) {
	for _, c := range []struct {
		name    string
		budget  int
		refused []string // the tiers that refuse, in ladder order
	}{{"ladder-dtree", ladderDTreeBudget, []string{conf.TierOBDD}}, {"ladder-mc", 1, []string{conf.TierOBDD, conf.TierDTree}}} {
		reg := obs.New()
		spec := Spec{Style: Lazy, Compile: dtree.Options{NodeBudget: c.budget}, MC: prob.MCOptions{Seed: 1}, Metrics: reg}
		p, err := Prepare(hardDB(rand.New(rand.NewSource(1))), hardQuery(), fd.NewSet(), spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{res.Stats.Lineage.Tier: res.Stats.Lineage.Nodes}
		if len(res.Stats.refused) != len(c.refused) {
			t.Fatalf("%s: %d refused records, want %d", c.name, len(res.Stats.refused), len(c.refused))
		}
		for i, r := range res.Stats.refused {
			if r.Tier != c.refused[i] || r.Nodes <= 0 {
				t.Fatalf("%s: refused record %d is %+v, want %s's with its effort", c.name, i, r, c.refused[i])
			}
			want[r.Tier] += r.Nodes
		}
		got := reg.Snapshot().Counters
		for _, tier := range []string{conf.TierOBDD, conf.TierDTree} {
			if name := tier + "_nodes_total"; got[name] != want[tier] {
				t.Errorf("%s: %s = %d, want %d", c.name, name, got[name], want[tier])
			}
		}
	}
}

// TestTraceGolden pins the structural execution trace — Trace.Fingerprint,
// the deterministic part of Render — against golden files for every tier,
// including each rung of the fallback ladder. Run with -update after an
// intentional trace change. Durations and loose attributes (batch counts,
// physical operator choice, arena recycling) are excluded by construction,
// so these fixtures are stable across machines and worker counts.
func TestTraceGolden(t *testing.T) {
	cases := []struct {
		name string
		hard bool
		spec Spec
	}{
		{name: "lazy", spec: Spec{Style: Lazy}},
		{name: "mystiq", spec: Spec{Style: SafeMystiQ}},
		{name: "obdd", spec: Spec{Style: OBDD}},
		{name: "dtree", spec: Spec{Style: DTree}},
		{name: "mc", spec: Spec{Style: MonteCarlo, MC: prob.MCOptions{Seed: 1}}},
		{name: "ladder-obdd", hard: true, spec: Spec{Style: Lazy}},
		{name: "ladder-dtree", hard: true, spec: Spec{Style: Lazy, Compile: dtree.Options{NodeBudget: ladderDTreeBudget}}},
		{name: "ladder-mc", hard: true,
			spec: Spec{Style: Lazy, Compile: dtree.Options{NodeBudget: 1},
				MC: prob.MCOptions{Seed: 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			spec.Trace = true
			var res *Result
			var err error
			if c.hard {
				res, err = Run(hardDB(rand.New(rand.NewSource(1))), hardQuery(), fd.NewSet(), spec)
			} else {
				cat, _ := fig1Catalog()
				res, err = Run(cat, introQ(), tpchFDs(), spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Trace == nil {
				t.Fatal("Spec.Trace set but Stats.Trace is nil")
			}
			checkGoldenAt(t, "trace", c.name, res.Stats.Trace.Fingerprint())
		})
	}
}

// TestTraceOffByDefault: without Spec.Trace no trace is collected — the
// default path must not pay for span bookkeeping.
func TestTraceOffByDefault(t *testing.T) {
	cat, _ := fig1Catalog()
	res, err := Run(cat, introQ(), tpchFDs(), Spec{Style: Lazy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Trace != nil {
		t.Fatal("Stats.Trace populated without Spec.Trace")
	}
}

// TestSortScanSpanReportsSpills: the conf[sort+scan] span — and, under an
// eager plan, the conf[<op>] span of every eager step, under a safe plan
// the π^ind[<keep>] span of every independent projection — carries the
// operator's sorts and its spill volume — runs and bytes — the latter as
// loose attributes (they move with the sort budget and the partitioning, so
// they stay out of the fingerprint), and nothing when the sorts fit in
// memory. The runs are written under Spec.Conf.TmpDir (a directory that
// does not exist fails the spilling run) and none is left behind.
func TestSortScanSpanReportsSpills(t *testing.T) {
	for _, c := range []struct {
		name   string
		style  Style
		span   string // the spans that must report: this one, or every other placement
		budget int
		spills bool
	}{
		{"in-memory", Lazy, "conf[sort+scan]", 0, false},
		{"spilled", Lazy, "conf[sort+scan]", 2, true},
		{"eager in-memory", Eager, "", 0, false},
		{"eager spilled", Eager, "", 2, true},
		{"mystiq in-memory", SafeMystiQ, "", 0, false},
		{"mystiq spilled", SafeMystiQ, "", 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cat, _ := fig1Catalog()
			spec := Spec{Style: c.style, Trace: true}
			spec.Conf.SortBudget = c.budget
			spec.Conf.TmpDir = t.TempDir()
			res, err := Run(cat, introQ(), tpchFDs(), spec)
			if err != nil {
				t.Fatal(err)
			}
			var spans []*obs.Span
			var find func(s *obs.Span)
			find = func(s *obs.Span) {
				step := (strings.HasPrefix(s.Name, "conf[") && s.Name != "conf[sort+scan]") || strings.HasPrefix(s.Name, "π^ind[")
				if s.Name == c.span || (c.span == "" && step) {
					spans = append(spans, s)
				}
				for _, ch := range s.Children {
					find(ch)
				}
			}
			find(res.Stats.Trace.Root)
			if len(spans) == 0 {
				t.Fatalf("no reporting span in\n%s", res.Stats.Trace.Render(true))
			}
			var runs, bytes int64
			for _, span := range spans {
				attrs := make(map[string]int64)
				for _, a := range span.Attrs {
					if (a.Key == "spilled_runs" || a.Key == "spill_bytes") == a.Structural {
						t.Errorf("%s: attribute %s structural=%v", span.Name, a.Key, a.Structural)
					}
					attrs[a.Key], _ = strconv.ParseInt(a.Val, 10, 64)
				}
				if attrs["sorts"] < 1 || attrs["sorts"] != attrs["scans"] {
					t.Errorf("%s reported scans=%d sorts=%d", span.Name, attrs["scans"], attrs["sorts"])
				}
				runs += attrs["spilled_runs"]
				bytes += attrs["spill_bytes"]
			}
			if c.spills && (runs < 1 || bytes < runs*storage.PageSize) {
				t.Errorf("spilled sort reported spilled_runs=%d spill_bytes=%d", runs, bytes)
			}
			if !c.spills && (runs != 0 || bytes != 0) {
				t.Errorf("in-memory sort reported spilled_runs=%d spill_bytes=%d", runs, bytes)
			}
			if int64(res.Stats.SpilledRuns) != runs || res.Stats.SpillBytes != bytes {
				t.Errorf("Stats report %d runs / %d bytes, the spans %d / %d", res.Stats.SpilledRuns, res.Stats.SpillBytes, runs, bytes)
			}
			if left, err := os.ReadDir(spec.Conf.TmpDir); err != nil || len(left) != 0 {
				t.Errorf("%d run files left in the spill directory (%v)", len(left), err)
			}
			spec.Conf.TmpDir = filepath.Join(spec.Conf.TmpDir, "missing")
			if _, err := Run(cat, introQ(), tpchFDs(), spec); (err != nil) != c.spills {
				t.Errorf("run with a missing spill directory: %v, spills %v", err, c.spills)
			}
		})
	}
}
