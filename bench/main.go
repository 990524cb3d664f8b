// Command bench is the repository's one benchmark: four named workloads
// measured end to end with wall clock taken outside plan.RunContext, every
// answer checked against a reference, and a separate traced run that times
// the calls into each layer from this side of the boundary. See README.md.
//
//	go run . -seed 1                       the whole suite, one child process per workload
//	go run . -workload scan_disk -seed 1 -seconds 20 -trace 0
//	                                       one run, as the driver of BENCHMARK.json makes it
//	go run . -selfcheck                    the suite twice; non-zero if an end-to-end metric moves past its bound
//	go run . -compare old.json new.json    two suite documents (or streams of them) side by side
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// suiteDoc is the suite's one JSON document. Claim is always null: the
// benchmark measures, it claims no gain.
type suiteDoc struct {
	Seed      int64                      `json:"seed"`
	Go        string                     `json:"go"`
	NProc     int                        `json:"nproc"`
	SFScale   float64                    `json:"sf_scale"`
	Claim     *string                    `json:"claim"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// resultLine is the one-run result the driver of BENCHMARK.json reads from
// the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type flags struct {
	options
	traceFlag int
	full      bool
	selfcheck bool
	compare   bool
	manifest  bool
}

func main() {
	// One closed-loop client on at most two threads: the sandbox has two
	// cores, and before Go 1.25 GOMAXPROCS ignores a container's CPU quota.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var f flags
	flag.StringVar(&f.workload, "workload", "", "run one workload in this process (default: the whole suite, one child process each)")
	flag.Int64Var(&f.seed, "seed", 1, "seed of the generated inputs and of Monte Carlo")
	flag.Float64Var(&f.seconds, "seconds", 0, "time budget of the timed passes (0: the workload's fixed pass count)")
	flag.IntVar(&f.passes, "passes", 0, "timed passes per workload (0: by -seconds, else the workload's own count)")
	flag.IntVar(&f.traceFlag, "trace", -1, "1: make the traced run and report per-layer metrics; 0: end-to-end only (default: 1 for the suite, 0 for -workload)")
	flag.Float64Var(&f.scale, "sf-scale", 1, "multiplier on both datasets' scale factors; gated numbers are taken at 1.0")
	flag.StringVar(&f.traceOut, "trace-out", "", "write the traced run's spans as Chrome trace-event JSON (the suite inserts the workload name before the extension)")
	flag.StringVar(&f.tmpRoot, "tmp", ".", "directory under which the benchmark's temp dir is created")
	flag.BoolVar(&f.full, "full", false, "with -workload: print the workload's full section, not the driver's result line")
	flag.BoolVar(&f.selfcheck, "selfcheck", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	flag.BoolVar(&f.compare, "compare", false, "compare two suite documents: -compare old.json new.json")
	flag.BoolVar(&f.manifest, "manifest", false, "print BENCHMARK.json from the registry and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, f)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, f flags) error {
	switch {
	case f.manifest:
		_, err := os.Stdout.Write(manifestJSON())
		return err
	case f.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two files: old.json new.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case f.scale <= 0:
		return errors.New("-sf-scale must be positive")
	case f.selfcheck:
		return selfcheck(ctx, f)
	case f.workload != "":
		f.trace = f.traceFlag == 1
		return runOne(ctx, f)
	default:
		f.trace = f.traceFlag != 0
		doc, err := runSuite(ctx, f)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		for _, w := range workloads {
			if c := doc.Workloads[w.Name].Checks; c.Failed > 0 {
				return fmt.Errorf("%s: %d of %d checks failed", w.Name, c.Failed, c.Attempted)
			}
		}
		return nil
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(ctx context.Context, f flags) error {
	res, err := runWorkload(ctx, f.options)
	if err != nil {
		return err
	}
	printTable(f.workload, res)
	var out any = res
	if !f.full {
		line := resultLine{
			Correct:   res.Checks.Failed == 0,
			Attempted: res.Checks.Attempted,
			Failed:    res.Checks.Failed,
			Metrics:   make(map[string]metricValue),
		}
		src := res.E2E
		if f.trace {
			src = res.Layers
		}
		for name, m := range src {
			line.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
		out = line
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// runSuite runs every workload in a fresh child process of this binary, so
// heap growth and the peak-RSS watermark do not leak between workloads.
// All children work under one temp dir, removed on return — also when a
// signal cancels ctx: children get the interrupt, clean up and exit.
func runSuite(ctx context.Context, f flags) (*suiteDoc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(f.tmpRoot, ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	doc := &suiteDoc{
		Seed: f.seed, Go: runtime.Version(), NProc: runtime.NumCPU(), SFScale: f.scale,
		Workloads: make(map[string]*workloadResult),
	}
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-full", "-tmp", tmp,
			"-seed", strconv.FormatInt(f.seed, 10),
			"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
			"-passes", strconv.Itoa(f.passes),
			"-sf-scale", strconv.FormatFloat(f.scale, 'g', -1, 64),
		}
		if f.trace {
			args = append(args, "-trace", "1")
			if f.traceOut != "" {
				ext := filepath.Ext(f.traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(f.traceOut, ext)+"."+w.Name+ext)
			}
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 10 * time.Second
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res workloadResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("workload %s: reading the child's result: %w", w.Name, err)
		}
		doc.Workloads[w.Name] = &res
	}
	return doc, nil
}

// printTable writes the human table to stderr; stdout stays JSON.
func printTable(name string, res *workloadResult) {
	p := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }
	p("== %s: %d attempted, %d failed, digest %s\n", name, res.Checks.Attempted, res.Checks.Failed, res.Checks.Digest)
	for _, msg := range res.Checks.Problems {
		p("   FAILED %s\n", msg)
	}
	for _, d := range endToEnd {
		m := res.E2E[d.Name]
		p("  %-28s %14.6g %-8s n=%d q1=%.6g q3=%.6g\n", d.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	for _, r := range res.Rows {
		p("  row %-12s p50 %9.4fs  tuple %9.4fs  prob %9.4fs  conf share %.3f  rows %d\n",
			r.ID, r.P50S, r.TupleP50S, r.ProbP50S, r.ConfShare, r.Rows)
	}
	if res.Layers == nil {
		return
	}
	for _, d := range perLayer {
		if m := res.Layers[d.Name]; m.Value != 0 {
			p("  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}
