package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/benchutil"
	"repro/internal/conf"
	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/tpch"
)

// row is one resolved (query, style) of a workload with its reference
// answer, the warm-up pass's digest, and its samples over the timed passes.
type row struct {
	rowSpec
	id    string // "18/eager"
	q     *query.Query
	sigma *fd.Set

	ref    *answer
	rows   int
	digest uint64
	scans  int // Stats.Scans of the warm-up run

	wall, tuple, prob []float64 // seconds, one per timed pass
}

// staged reports whether the traced run can re-execute the row in stages
// from outside: lazy rows and the three lineage tiers. Eager and MystiQ
// interleave their confidence operators with the joins.
func (r *row) staged() bool {
	return r.Style != plan.Eager && r.Style != plan.SafeMystiQ
}

// runner executes one workload in this process.
type runner struct {
	def   *workloadDef
	seed  int64
	tmp   string // the benchmark's temp dir: heap files and spill files
	spill string

	ds   *dataset
	rows []*row
	chk  checker
}

func newRunner(def *workloadDef, seed int64, tmp string) (*runner, error) {
	w := &runner{def: def, seed: seed, tmp: tmp, spill: filepath.Join(tmp, "spill")}
	if err := os.MkdirAll(w.spill, 0o755); err != nil {
		return nil, err
	}
	catalog := tpch.Catalog()
	for _, rs := range def.Rows {
		r := &row{rowSpec: rs, id: rs.Query + "/" + rs.Style.String()}
		if rs.Query == unsafeQuery {
			r.q, r.sigma = benchutil.UnsafeQuery(), fd.NewSet()
		} else {
			e := catalog[rs.Query]
			if e == nil || e.Q == nil {
				return nil, fmt.Errorf("workload %s: no catalog query %q", def.Name, rs.Query)
			}
			r.q, r.sigma = e.Q, tpch.FDsFor(e)
		}
		w.rows = append(w.rows, r)
	}
	return w, nil
}

// spec is the plan spec every measured run uses: tracing off, one worker,
// spills under the benchmark's temp dir, Monte Carlo pinned.
func (w *runner) spec(style plan.Style) plan.Spec {
	return plan.Spec{
		Style:   style,
		Workers: 1,
		Conf:    conf.Options{TmpDir: w.spill},
		MC:      prob.MCOptions{Epsilon: mcEpsilon, Delta: mcDelta, Seed: w.seed},
	}
}

// execute runs one query with wall clock taken outside plan.RunContext.
func execute(ctx context.Context, cat *plan.Catalog, r *row, spec plan.Spec) (*plan.Result, float64, error) {
	q := r.q.Clone()
	t0 := time.Now()
	res, err := plan.RunContext(ctx, cat, q, r.sigma, spec)
	return res, time.Since(t0).Seconds(), err
}

// reference computes each row's reference answer over the in-memory tables
// of the same seed: lazy + RowExec for the exact styles (so disk vs memory,
// row vs columnar and lazy vs eager vs MystiQ must all agree), the OBDD
// tier for U (so obdd and dtree are checked against each other and Monte
// Carlo against both). On disk05 the in-memory tables are dropped afterwards
// so the timed passes run over a heap that holds no copy of the database.
func (w *runner) reference(ctx context.Context) error {
	cat := w.ds.cat
	if w.ds.dir != "" {
		cat = w.ds.data.Catalog()
	}
	byQuery := make(map[string]*answer)
	for _, r := range w.rows {
		if byQuery[r.Query] == nil {
			spec := w.spec(plan.Lazy)
			if r.Query == unsafeQuery {
				spec.Style = plan.OBDD
			}
			spec.RowExec = true
			res, _, err := execute(ctx, cat, r, spec)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", r.Query, err)
			}
			if res.Stats.Approximate {
				return fmt.Errorf("reference for %s is not exact (%s)", r.Query, res.Stats.Plan)
			}
			a, err := canon(res.Rows)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", r.Query, err)
			}
			if len(a.keys) == 0 {
				return fmt.Errorf("reference for %s is empty: the workload would check nothing", r.Query)
			}
			byQuery[r.Query] = a
		}
		r.ref = byQuery[r.Query]
	}
	if w.ds.dir != "" {
		w.ds.data = nil
		debug.FreeOSMemory()
		// Best effort: restart the peak-RSS watermark so runtime.peak_rss_mb
		// is the workload's, not the generator's.
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}
	return nil
}

// warmUp runs the untimed first pass, checks every answer against its
// reference and records the digests the timed passes re-check.
func (w *runner) warmUp(ctx context.Context) {
	for _, r := range w.rows {
		res, _, err := execute(ctx, w.ds.cat, r, w.spec(r.Style))
		got := w.chk.checkAgainst(r, res, err, agreementFor(r.Style))
		if got != nil {
			r.rows, r.digest, r.scans = len(got.keys), got.digest(), res.Stats.Scans
		}
	}
}

// passSample is what one timed pass measured.
type passSample struct {
	wall    float64 // Σ query walls
	allocMB float64 // Σ TotalAlloc deltas around the queries
}

// timedPhase is everything the timed passes measured beyond per-row samples.
type timedPhase struct {
	passes           []passSample
	degraded         int
	retries          int64
	gcCycles         uint32
	gcPauseMS        float64
	poolHits, poolMs int64
}

// timedPasses runs the pass list until `passes` passes are done or, when
// passes is 0, until `seconds` have elapsed (at least three passes). The
// collector runs, untimed, between passes; allocation is read around each
// query so the checker's own garbage is not charged to the program.
func (w *runner) timedPasses(ctx context.Context, passes int, seconds float64) timedPhase {
	var tp timedPhase
	var m0, m1, before, after runtime.MemStats
	var h0, s0 int64
	if p := w.ds.pool(); p != nil {
		h0, s0 = p.Stats()
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for n := 0; ctx.Err() == nil; n++ {
		if passes > 0 && n >= passes {
			break
		}
		if passes == 0 && n >= 3 && time.Since(start).Seconds() >= seconds {
			break
		}
		if n > 0 {
			runtime.GC()
		}
		var ps passSample
		for _, r := range w.rows {
			spec := w.spec(r.Style)
			runtime.ReadMemStats(&before)
			res, wall, err := execute(ctx, w.ds.cat, r, spec)
			runtime.ReadMemStats(&after)
			w.chk.checkDigest(r, res, err)
			ps.wall += wall
			ps.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			r.wall = append(r.wall, wall)
			if err == nil {
				r.tuple = append(r.tuple, res.Stats.TupleTime.Seconds())
				r.prob = append(r.prob, res.Stats.ProbTime.Seconds())
				if res.Stats.Degraded {
					tp.degraded++
				}
				tp.retries += res.Stats.Retries
			}
		}
		tp.passes = append(tp.passes, ps)
	}
	runtime.ReadMemStats(&m1)
	// Forced collections (one per pass boundary) are the harness's, not the
	// program's.
	tp.gcCycles = (m1.NumGC - m0.NumGC) - (m1.NumForcedGC - m0.NumForcedGC)
	tp.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if p := w.ds.pool(); p != nil {
		h1, s1 := p.Stats()
		tp.poolHits, tp.poolMs = h1-h0, s1-s0
	}
	return tp
}

// leakedSpillFiles counts files left under the spill directory: after a
// workload it must hold none, and each one counts as a failure.
func (w *runner) leakedSpillFiles() int {
	n := 0
	_ = filepath.WalkDir(w.spill, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return nil
	})
	return n
}

// peakRSSMB reads VmHWM of this process.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
