package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// side is one end-to-end metric of one workload on one side of a
// comparison: its median and quartiles over the side's runs.
type side struct {
	med, q1, q3 float64
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.med)) }

// readDocs reads a file holding one suite document or several concatenated
// (ten runs appended to one file make a §8-style comparison).
func readDocs(path string) ([]*suiteDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []*suiteDoc
	dec := json.NewDecoder(f)
	for {
		var d suiteDoc
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, &d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no suite document", path)
	}
	return docs, nil
}

// sideOf summarises one metric over a side's documents. A single document
// brings its own quartiles (over passes or builds); several give quartiles
// over the runs' values.
func sideOf(docs []*suiteDoc, workload, metric string) (side, bool) {
	var vals []float64
	var last metricValue
	for _, d := range docs {
		if w := d.Workloads[workload]; w != nil {
			if m, ok := w.E2E[metric]; ok {
				vals = append(vals, m.Value)
				last = m
			}
		}
	}
	switch len(vals) {
	case 0:
		return side{}, false
	case 1:
		return side{med: last.Value, q1: last.Q1, q3: last.Q3}, true
	}
	q1, med, q3 := quantiles(vals)
	return side{med: med, q1: q1, q3: q3}, true
}

// Verdicts of a comparison, after choosing-metrics §6-8.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // spread wider than the bound: no verdict either way
)

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction (negative = better).
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

func verdict(d metricDef, old, cur side) string {
	worse := worsening(d, old.med, cur.med)
	switch {
	case math.Max(old.spread(), cur.spread()) > d.Bound:
		return unresolved
	case worse > d.Bound:
		return regressed
	case worse < 0 && math.Abs(cur.med-old.med) > old.q3-old.q1:
		return improved
	default:
		return unchanged
	}
}

// compareDocs prints one row per workload × end-to-end metric and returns
// how many rows regressed.
func compareDocs(w io.Writer, old, cur []*suiteDoc) int {
	fmt.Fprintf(w, "%-15s %-18s %12s %25s %12s %25s %9s  %s\n",
		"workload", "metric", "old", "[q1, q3]", "new", "[q1, q3]", "new/old", "verdict")
	regressions := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, okA := sideOf(old, wl.Name, d.Name)
			b, okB := sideOf(cur, wl.Name, d.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-15s %-18s missing on one side\n", wl.Name, d.Name)
				continue
			}
			v := verdict(d, a, b)
			if v == regressed {
				regressions++
			}
			fmt.Fprintf(w, "%-15s %-18s %12.6g %25s %12.6g %25s %9.4f  %s (bound %.2f, base %.6g %s)\n",
				wl.Name, d.Name, a.med, fmt.Sprintf("[%.6g, %.6g]", a.q1, a.q3),
				b.med, fmt.Sprintf("[%.6g, %.6g]", b.q1, b.q3), ratio(b.med, a.med), v, d.Bound, a.med, d.Unit)
		}
	}
	return regressions
}

func compareFiles(oldPath, newPath string) error {
	old, err := readDocs(oldPath)
	if err != nil {
		return err
	}
	cur, err := readDocs(newPath)
	if err != nil {
		return err
	}
	if n := compareDocs(os.Stdout, old, cur); n > 0 {
		return fmt.Errorf("%d end-to-end metric(s) regressed past their bound", n)
	}
	return nil
}

// selfcheck is the A/A check: the whole suite twice on this binary. It fails
// when a workload fails its checks or an end-to-end metric differs between
// the two runs, in either direction, by more than its bound.
func selfcheck(ctx context.Context, f flags) error {
	f.trace = f.traceFlag == 1
	var docs [2]*suiteDoc
	for i := range docs {
		d, err := runSuite(ctx, f)
		if err != nil {
			return err
		}
		docs[i] = d
	}
	compareDocs(os.Stdout, docs[:1], docs[1:])
	var bad []string
	for _, wl := range workloads {
		for i, d := range docs {
			if c := d.Workloads[wl.Name].Checks; c.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s run %d: %d of %d checks failed", wl.Name, i+1, c.Failed, c.Attempted))
			}
		}
		for _, m := range endToEnd {
			a := docs[0].Workloads[wl.Name].E2E[m.Name].Value
			b := docs[1].Workloads[wl.Name].E2E[m.Name].Value
			if diff := math.Abs(ratio(b-a, a)); diff > m.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%% (bound %.0f%%)", wl.Name, m.Name, a, b, 100*diff, 100*m.Bound))
			}
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "selfcheck:", b)
		}
		return errors.New("selfcheck failed")
	}
	fmt.Fprintln(os.Stderr, "selfcheck: every end-to-end metric within its bound")
	return nil
}
