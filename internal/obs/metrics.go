package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// unusable; get one from Registry.Counter. A nil *Counter is a valid no-op
// sink.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value (e.g. in-flight queries). A nil *Gauge
// is a valid no-op sink.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (d may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets is the default latency histogram layout: upper bounds in
// seconds from 100µs to 100s, roughly ×3 apart.
var DefBuckets = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100}

// Histogram is a fixed-bucket latency histogram. Observations are
// seconds; the running sum is kept in integer microseconds so Observe is
// two atomic adds and no locks. A nil *Histogram is a valid no-op sink.
type Histogram struct {
	bounds    []float64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts    []atomic.Int64
	sumMicros atomic.Int64
}

// Observe records one value (in seconds).
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.counts[i].Add(1)
	h.sumMicros.Add(int64(seconds * 1e6))
}

// ObserveSince records the elapsed time since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Registry is a named collection of metrics. Get one with New; a nil
// *Registry is valid and hands out nil (no-op) metrics, so callers
// thread a possibly-nil registry through without branching.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// New returns an empty metrics registry.
func New() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter. Nil
// registry → nil counter, which is a no-op sink.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket bounds (DefBuckets when none are supplied). Bounds
// are fixed at first registration.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// HistSnapshot is a point-in-time histogram reading.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is the overflow bucket
	Count  int64     `json:"count"`
	SumSec float64   `json:"sum_sec"`
}

// Snapshot is a point-in-time reading of a whole registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot reads every metric. Nil registry → empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
			hs.Count += hs.Counts[i]
		}
		hs.SumSec = float64(h.sumMicros.Load()) / 1e6
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as deterministic (key-sorted) JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("{\n  \"counters\": {")
	for i, k := range sortedKeys(s.Counters) {
		p("%s\n    %q: %d", comma(i), k, s.Counters[k])
	}
	p("\n  },\n  \"gauges\": {")
	for i, k := range sortedKeys(s.Gauges) {
		p("%s\n    %q: %d", comma(i), k, s.Gauges[k])
	}
	p("\n  },\n  \"histograms\": {")
	hkeys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		hkeys = append(hkeys, k)
	}
	slices.Sort(hkeys)
	for i, k := range hkeys {
		h := s.Histograms[k]
		p("%s\n    %q: {\"count\": %d, \"sum_sec\": %g, \"buckets\": {", comma(i), k, h.Count, h.SumSec)
		for j, b := range h.Bounds {
			p("%s\"le_%g\": %d", comma(j), b, h.Counts[j])
		}
		p("%s\"le_inf\": %d}}", comma(len(h.Bounds)), h.Counts[len(h.Bounds)])
	}
	p("\n  }\n}\n")
	return err
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

func comma(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}
