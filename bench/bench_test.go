package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/plan"
)

// testScale keeps every workload's test run around a second.
const testScale = 0.1

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesRegistry keeps BENCHMARK.json and the runner's registry
// from drifting, and the file inside the limits of the driver's contract.
func TestManifestMatchesRegistry(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the registry; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}
	var m manifest
	if err := json.Unmarshal(onDisk, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != 4 || len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("counts out of range: %d workloads, %d end-to-end, %d per-layer", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Command) > 32 {
		t.Errorf("run_seconds %d or command length %d out of range", m.RunSeconds, len(m.Command))
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, e := range m.EndToEnd {
		name(e.Name)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", e.Name)
		}
	}
	for _, e := range m.PerLayer {
		name(e.Name)
		if e.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", e.Name)
		}
	}
	for _, e := range append(m.EndToEnd, m.PerLayer...) {
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", e.Name, e.Unit, unitRE)
		}
		if e.Better != lower && e.Better != higher {
			t.Errorf("metric %s: better is %q", e.Name, e.Better)
		}
	}
	if s := m.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != lower {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", s)
	}
}

func runForTest(t *testing.T, workload string) *workloadResult {
	t.Helper()
	res, err := runWorkload(context.Background(), options{
		workload: workload, seed: 1, scale: testScale, passes: 1, trace: true, tmpRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs each workload twice at a tenth of the
// scale with one timed pass: every registered metric is emitted with its
// unit and nothing else is, no check fails, the stage cover is a number
// (its band is enforced only at full scale, where timings are long enough
// not to flake), and the exact counters repeat.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	exact := []string{"storage.scan_pages", "storage.pool_misses", "storage.extsort_spills", "conf.scans", "conf.sorts",
		"conf.spilled_runs", "conf.lineage_clauses", "engine.answer_rows", "obdd.nodes", "dtree.steps", "prob.mc_samples"}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			a, b := runForTest(t, w.Name), runForTest(t, w.Name)
			if a.Checks.Failed != 0 || a.Checks.Attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", a.Checks.Failed, a.Checks.Attempted, a.Checks.Problems)
			}
			if a.Layers["e2e.failed_frac"].Value != 0 {
				t.Errorf("e2e.failed_frac = %v", a.Layers["e2e.failed_frac"].Value)
			}
			for _, d := range endToEnd {
				m, ok := a.E2E[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
			for _, d := range perLayer {
				m, ok := a.Layers[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s: got %+v (present %v), want a finite value in %s", d.Name, m, ok, d.Unit)
				}
			}
			if len(a.E2E) != len(endToEnd) || len(a.Layers) != len(perLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, registry has %d and %d",
					len(a.E2E), len(a.Layers), len(endToEnd), len(perLayer))
			}
			if c := a.Layers["trace.stage_cover"].Value; !(c > 0) {
				t.Errorf("trace.stage_cover = %v", c)
			}
			for _, name := range exact {
				if x, y := a.Layers[name].Value, b.Layers[name].Value; x != y {
					t.Errorf("%s is not exact: %v then %v at the same seed", name, x, y)
				}
			}
			if a.Checks.Digest != b.Checks.Digest {
				t.Errorf("answer digest moved between two runs of one seed: %s then %s", a.Checks.Digest, b.Checks.Digest)
			}
		})
	}
}

// pinDetection runs one row through the checker on a fresh dataset and
// demands that the checker's verdict agrees with what the answers are: it
// must report a result that is off, and must not report one that is right.
// Such a test passes today, with the defect present and caught, and keeps
// passing once somebody fixes the defect.
func pinDetection(t *testing.T, def workloadDef, scale float64) (caught bool) {
	t.Helper()
	ctx := context.Background()
	w, err := newRunner(&def, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := setUp(def.Dataset, 1, scale, w.tmp, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.close()
	w.ds = ds
	if err := w.reference(ctx); err != nil {
		t.Fatal(err)
	}
	r := w.rows[0]
	res, _, err := execute(ctx, ds.cat, r, w.spec(r.Style))
	if err != nil {
		t.Fatal(err)
	}
	got, err := canon(res.Rows)
	if err != nil {
		t.Fatal(err)
	}
	_, problem := got.compare(r.ref, agreementFor(r.Style))
	w.chk.checkAgainst(r, res, nil, agreementFor(r.Style))
	switch {
	case problem != "" && w.chk.failed == 0:
		t.Fatalf("%s is off (%s) and the checker did not report it", r.id, problem)
	case problem == "" && w.chk.failed != 0:
		t.Fatalf("%s matches its reference and the checker reported %v", r.id, w.chk.problems)
	}
	return problem != ""
}

// TestMystiQOnDiskIsCaught pins the reason join_styles is in memory:
// plan.SafeMystiQ over a disk-bound catalog scans the empty in-memory
// placeholder and returns no answers and no error (README, defect 1).
func TestMystiQOnDiskIsCaught(t *testing.T) {
	def := workloadDef{Name: "mystiq_on_disk", Dataset: disk05, Rows: rows(plan.SafeMystiQ, "3")}
	if pinDetection(t, def, testScale) {
		t.Log("defect still present and caught: SafeMystiQ over a disk catalog does not return the reference's rows")
	} else {
		t.Log("SafeMystiQ over a disk catalog now matches the reference: join_styles could move to disk05")
	}
}

// TestMystiQQuery10IsCaught pins the reason 10 × mystiq is not in
// join_styles: the safe plan for query 10 counts the customer's probability
// once per order (README, defect 2). Half scale, where the error is well
// past MystiQ's tolerance.
func TestMystiQQuery10IsCaught(t *testing.T) {
	def := workloadDef{Name: "mystiq_q10", Dataset: mem02, Rows: rows(plan.SafeMystiQ, "10")}
	if pinDetection(t, def, 0.5) {
		t.Log("defect still present and caught: the safe plan for query 10 disagrees with the exact answer")
	} else {
		t.Log("the safe plan for query 10 now matches: 10 × mystiq could join join_styles")
	}
}

// TestAgreement pins the checker's three rules: exact rows to 1e-9, an
// empty result never passes, and Monte Carlo held to its (ε, δ) promise.
func TestAgreement(t *testing.T) {
	ref := &answer{}
	for i := 0; i < 200; i++ {
		ref.keys = append(ref.keys, string(rune('a'+i/26))+string(rune('a'+i%26)))
		ref.confs = append(ref.confs, 0.5)
	}
	off := func(n int, by float64) *answer {
		a := &answer{keys: ref.keys, confs: append([]float64(nil), ref.confs...)}
		for i := 0; i < n; i++ {
			a.confs[i*7%200] += by
		}
		return a
	}
	mc := agreementFor(plan.MonteCarlo)
	for _, c := range []struct {
		name string
		got  *answer
		want agreement
		ok   bool
	}{
		{"identical", off(0, 0), agreementFor(plan.Lazy), true},
		{"exact row off by 1e-6", off(1, 1e-6), agreementFor(plan.Eager), false},
		{"empty result", &answer{}, agreementFor(plan.Lazy), false},
		{"mystiq fudge", off(200, 4e-3), agreementFor(plan.SafeMystiQ), true},
		{"mc: 2 of 200 just past eps", off(2, 1.05*mcEpsilon), mc, true},
		{"mc: 3 of 200 just past eps", off(3, 1.05*mcEpsilon), mc, false},
		{"mc: one row past 2 eps", off(1, 2.5*mcEpsilon), mc, false},
	} {
		if _, problem := c.got.compare(ref, c.want); (problem == "") != c.ok {
			t.Errorf("%s: agree = %v, want %v (%s)", c.name, problem == "", c.ok, problem)
		}
	}
}

func TestLeakedSpillFilesAreCounted(t *testing.T) {
	w, err := newRunner(&workloads[0], 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if n := w.leakedSpillFiles(); n != 0 {
		t.Fatalf("fresh spill dir holds %d files", n)
	}
	if err := os.WriteFile(filepath.Join(w.spill, "sproutsort-1-1-0"), []byte("run"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := w.leakedSpillFiles(); n != 1 {
		t.Fatalf("leakedSpillFiles = %d, want 1", n)
	}
}

// TestQuantilesMatchPython checks the quartiles against values printed by
// Python's statistics.quantiles(xs, n=4), which the driver uses.
func TestQuantilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quantiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	pass := metricDef{Name: "pass_p50_s", Better: lower, Bound: 0.08}
	rate := metricDef{Name: "queries_per_s", Better: higher, Bound: 0.08}
	tight := func(med float64) side { return side{med: med, q1: med * 0.99, q3: med * 1.01} }
	for _, c := range []struct {
		d        metricDef
		old, cur side
		want     string
	}{
		{pass, tight(1), tight(1.2), regressed},
		{pass, tight(1), tight(1.05), unchanged},
		{pass, tight(1), tight(0.9), improved},
		{pass, tight(1), tight(0.995), unchanged}, // better, but inside the old side's quartiles
		{pass, side{med: 1, q1: 0.9, q3: 1.1}, tight(1.2), unresolved},
		{rate, tight(10), tight(8), regressed},
		{rate, tight(10), tight(12), improved},
	} {
		if got := verdict(c.d, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Name, c.old.med, c.cur.med, got, c.want)
		}
	}
}

// TestCompareReadsSuiteDocuments feeds -compare one document on the old side
// and a stream of three on the new side.
func TestCompareReadsSuiteDocuments(t *testing.T) {
	doc := func(pass float64) *suiteDoc {
		d := &suiteDoc{Workloads: make(map[string]*workloadResult)}
		for _, w := range workloads {
			e2e := make(map[string]metricValue)
			for _, m := range endToEnd {
				e2e[m.Name] = metricValue{Value: 5, Unit: m.Unit, N: 9, Q1: 4.95, Q3: 5.05}
			}
			e2e["pass_p50_s"] = metricValue{Value: pass, Unit: "s", N: 9, Q1: pass * 0.99, Q3: pass * 1.01}
			d.Workloads[w.Name] = &workloadResult{E2E: e2e}
		}
		return d
	}
	dir := t.TempDir()
	write := func(name string, docs ...*suiteDoc) string {
		var buf bytes.Buffer
		for _, d := range docs {
			if err := json.NewEncoder(&buf).Encode(d); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldDocs, err := readDocs(write("old.json", doc(1)))
	if err != nil {
		t.Fatal(err)
	}
	newDocs, err := readDocs(write("new.json", doc(1.49), doc(1.5), doc(1.51)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n := compareDocs(&out, oldDocs, newDocs); n != len(workloads) {
		t.Errorf("%d regressions, want one per workload (pass_p50_s):\n%s", n, out.String())
	}
	if n := compareDocs(&out, oldDocs, oldDocs); n != 0 {
		t.Errorf("a document regressed against itself:\n%s", out.String())
	}
}
