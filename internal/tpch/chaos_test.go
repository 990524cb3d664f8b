package tpch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/table"
)

// The chaos harness: replay randomized-but-seeded fault schedules against
// disk-resident TPC-H queries and assert the engine's robustness contract
// on every one of them — a faulted run either returns bit-identical
// confidences (the fault was absorbed by a storage-level retry or hit an
// idle path) or a cleanly typed injected error; it never corrupts results,
// leaks spill files, strands pinned buffer-pool pages, or leaks
// goroutines. Every failure reproduces from its seed alone.

// chaosSeeds is the schedule count the acceptance bar asks for; -short
// trims it for the inner development loop.
const chaosSeeds = 200

// chaosQueries rotates styles and shapes across seeds: lazy sort+scan
// (spill-heavy), the OBDD compilation tier, the hierarchical multi-join,
// and that join under MystiQ's safe plan (five spilling independent
// projections).
var chaosQueries = []struct {
	name  string
	style plan.Style
}{
	{"1", plan.Lazy},
	{"15", plan.OBDD},
	{"18", plan.Lazy},
	{"18", plan.SafeMystiQ},
}

// confKey renders an answer row for exact (bit-identical) comparison.
func confKey(row []table.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// confMapOf collects answer-row → confidence strings; confidences are
// formatted with %x so comparison is bit-exact.
func confMapOf(rows []table.Tuple) map[string]string {
	m := make(map[string]string, len(rows))
	for _, r := range rows {
		n := len(r)
		m[confKey(r[:n-1])] = fmt.Sprintf("%x", r[n-1].F)
	}
	return m
}

func TestChaosFaultSchedules(t *testing.T) {
	difftest.LeakCheck(t)
	dir := t.TempDir()
	mem := Generate(Config{SF: 0.001, Seed: 1})
	if err := mem.WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	heapFiles, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	spec := func(style plan.Style, spill string) plan.Spec {
		s := plan.Spec{Style: style}
		s.Conf.SortBudget = 64 // force spills so the fault plane sees writes
		s.Conf.TmpDir = spill
		return s
	}

	// Fault-free baselines, computed on the same disk catalog layout.
	baseline := make([]map[string]string, len(chaosQueries))
	baseSpill := t.TempDir()
	cat, _, closeFiles, err := OpenDiskCatalog(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, cq := range chaosQueries {
		e := Catalog()[cq.name]
		res, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), spec(cq.style, baseSpill))
		if err != nil {
			t.Fatalf("baseline %s: %v", cq.name, err)
		}
		baseline[i] = confMapOf(res.Rows.Rows)
	}
	if err := closeFiles(); err != nil {
		t.Fatal(err)
	}

	seeds := chaosSeeds
	if testing.Short() {
		seeds = 25
	}
	spill := filepath.Join(dir, "chaos-spill")
	if err := os.MkdirAll(spill, 0755); err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < seeds; seed++ {
		cq := chaosQueries[seed%len(chaosQueries)]
		runChaosSeed(t, dir, spill, int64(seed), cq.name, cq.style,
			spec(cq.style, spill), baseline[seed%len(chaosQueries)], len(heapFiles))
	}
}

// runChaosSeed replays one seeded fault schedule against one query and
// asserts the full robustness contract.
func runChaosSeed(t *testing.T, dir, spill string, seed int64, qname string, style plan.Style, sp plan.Spec, want map[string]string, nHeapFiles int) {
	t.Helper()
	storage.SetIO(&fault.IO{
		Plan:  fault.RandomPlan(seed),
		Retry: fault.Retry{MaxAttempts: 2, Base: time.Microsecond, Max: time.Millisecond},
		Sleep: func(time.Duration) {}, // latency faults must not slow the suite
	})
	defer storage.SetIO(nil)

	cat, _, closeFiles, err := OpenDiskCatalog(dir, 32)
	if err != nil {
		if !fault.IsInjected(err) {
			t.Errorf("seed %d: catalog open failed with untyped error: %v", seed, err)
		}
		return
	}
	defer func() {
		storage.SetIO(nil) // close must not re-fault
		if err := closeFiles(); err != nil {
			t.Errorf("seed %d: closing heap files: %v", seed, err)
		}
	}()

	e := Catalog()[qname]
	res, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), sp)
	switch {
	case err != nil:
		if !fault.IsInjected(err) {
			t.Errorf("seed %d (%s): failed with untyped error: %v", seed, qname, err)
		}
	default:
		got := confMapOf(res.Rows.Rows)
		if len(got) != len(want) {
			t.Errorf("seed %d (%s): %d answers, want %d", seed, qname, len(got), len(want))
			return
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("seed %d (%s): answer %q conf %s, want bit-identical %s", seed, qname, k, got[k], w)
			}
		}
	}

	// Quiescence invariants hold on every path, success or typed failure.
	if db := cat.Disk("Item"); db != nil {
		if n := db.Pool.Pinned(); n != 0 {
			t.Errorf("seed %d (%s): %d buffer-pool frames still pinned", seed, qname, n)
		}
	}
	if entries, err := os.ReadDir(spill); err != nil {
		t.Errorf("seed %d: reading spill dir: %v", seed, err)
	} else if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, en := range entries {
			names[i] = en.Name()
		}
		t.Errorf("seed %d (%s): leaked spill files: %v", seed, qname, names)
	}
	if entries, err := os.ReadDir(dir); err != nil {
		t.Errorf("seed %d: reading data dir: %v", seed, err)
	} else if len(entries) != nHeapFiles+1 { // +1 for the spill subdir
		t.Errorf("seed %d (%s): data dir grew to %d entries", seed, qname, len(entries))
	}
}

// TestChaosGovernedAndDegraded replays a band of schedules with the memory
// governor and deadline watermark armed on top of the fault plane — the
// degraded paths (early spill, grace join, stopped tiers) must uphold the same no-leak, typed-error contract,
// and a run that completes undegraded must return the ungoverned run's
// confidences bit for bit (governed runs may also legitimately degrade to
// certified bounds; those are not compared).
func TestChaosGovernedAndDegraded(t *testing.T) {
	difftest.LeakCheck(t)
	dir := t.TempDir()
	mem := Generate(Config{SF: 0.001, Seed: 1})
	if err := mem.WriteHeapFiles(dir); err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(dir, "chaos-spill")
	if err := os.MkdirAll(spill, 0755); err != nil {
		t.Fatal(err)
	}
	e := Catalog()["18"]
	base, err := plan.Run(mem.Catalog(), e.Q.Clone(), FDsFor(e), plan.Spec{Style: plan.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	want := confMapOf(base.Rows.Rows)
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		func() {
			storage.SetIO(&fault.IO{Plan: fault.RandomPlan(int64(1000 + seed)), Sleep: func(time.Duration) {}})
			defer storage.SetIO(nil)
			cat, _, closeFiles, err := OpenDiskCatalog(dir, 32)
			if err != nil {
				if !fault.IsInjected(err) {
					t.Errorf("seed %d: catalog open: %v", seed, err)
				}
				return
			}
			defer func() {
				storage.SetIO(nil)
				closeFiles()
			}()
			sp := plan.Spec{Style: plan.Lazy, MemBudget: 96 << 10}
			sp.Conf.SortBudget = 64
			sp.Conf.TmpDir = spill
			res, err := plan.Run(cat, e.Q.Clone(), FDsFor(e), sp)
			if err != nil && !fault.IsInjected(err) {
				t.Errorf("seed %d: untyped error: %v", seed, err)
			}
			if err == nil && res.Stats.Degraded && res.Stats.DegradeReason == "" {
				t.Errorf("seed %d: degraded without a reason", seed)
			}
			if err == nil && !res.Stats.Degraded {
				got := confMapOf(res.Rows.Rows)
				if len(got) != len(want) {
					t.Errorf("seed %d: %d answers, want %d", seed, len(got), len(want))
				}
				for k, w := range want {
					if got[k] != w {
						t.Errorf("seed %d: answer %q conf %s, want bit-identical %s", seed, k, got[k], w)
					}
				}
			}
			if entries, _ := os.ReadDir(spill); len(entries) != 0 {
				t.Errorf("seed %d: leaked spill files: %d", seed, len(entries))
			}
			if db := cat.Disk("Item"); db != nil && db.Pool.Pinned() != 0 {
				t.Errorf("seed %d: pinned frames leaked", seed)
			}
		}()
	}
}
