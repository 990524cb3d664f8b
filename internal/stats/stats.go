// Package stats gathers and serves the catalog statistics behind the
// cost-based planner: per-table row counts and average tuple widths,
// per-attribute distinct counts and equi-depth histograms, and the
// selectivity / cardinality estimators built on them. Statistics are
// collected by a single ANALYZE pass over each base table — either an
// in-memory relation or a heap file scanned through internal/storage — and
// cached on the planner catalog.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/storage"
	"repro/internal/table"
)

// HistogramBuckets is the number of equi-depth buckets kept per attribute.
const HistogramBuckets = 32

// sampleCap bounds the per-column reservoir from which histogram bucket
// boundaries are taken, keeping ANALYZE memory O(columns), not O(rows).
const sampleCap = 4096

// Histogram is an equi-depth histogram over one attribute: Bounds[i] is the
// upper boundary of bucket i, and each bucket holds ≈ Rows/len(Bounds)
// values. Boundaries come from a uniform sample of the column, so the
// histogram is approximate but one-pass.
type Histogram struct {
	Bounds []table.Value // ascending; len ≤ HistogramBuckets
}

// ColumnStats summarizes one attribute of a table.
type ColumnStats struct {
	// Distinct is the number of distinct values observed (exact up to
	// 64-bit hash collisions).
	Distinct int
	// Min and Max bound the observed values under table.Compare.
	Min, Max table.Value
	// Hist is the equi-depth histogram used for range selectivity.
	Hist Histogram
	// AvgWidth is the average encoded width of the attribute in bytes
	// (8 for numerics, string length for strings).
	AvgWidth float64
}

// TableStats summarizes one base table.
type TableStats struct {
	Name string
	Rows int
	// AvgTupleWidth is the average encoded tuple width in bytes, data
	// columns plus the V/P pair.
	AvgTupleWidth float64
	// AvgProb is the mean marginal probability of the table's tuples —
	// the expected fraction of tuples present in a sampled world.
	AvgProb float64
	// Cols maps base-column names (the stored schema's names, before any
	// per-occurrence renaming) to their statistics.
	Cols map[string]*ColumnStats
	// MaxVar is the largest variable id observed in the table's V column —
	// persisted so a disk-loaded catalog knows the world-variable count
	// without rescanning the data.
	MaxVar int
}

// colAccum accumulates one column's statistics during the ANALYZE pass.
type colAccum struct {
	name     string
	distinct map[uint64]struct{}
	min, max table.Value
	first    bool
	width    float64
	sample   []table.Value // reservoir for histogram boundaries
	seen     int
	rngState uint64
}

func newColAccum(name string) *colAccum {
	return &colAccum{
		name:     name,
		distinct: make(map[uint64]struct{}),
		first:    true,
		rngState: 0x9e3779b97f4a7c15, // fixed seed: ANALYZE is deterministic
	}
}

// nextRand is a SplitMix64 step — deterministic reservoir sampling without
// touching math/rand's global state.
func (c *colAccum) nextRand() uint64 {
	c.rngState += 0x9e3779b97f4a7c15
	z := c.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func valueWidth(v table.Value) float64 {
	if v.Kind == table.KindString {
		return float64(len(v.S))
	}
	return 8
}

func (c *colAccum) add(v table.Value) {
	c.distinct[table.HashOn(table.Tuple{v}, []int{0})] = struct{}{}
	if c.first {
		c.min, c.max, c.first = v, v, false
	} else {
		if table.Compare(v, c.min) < 0 {
			c.min = v
		}
		if table.Compare(v, c.max) > 0 {
			c.max = v
		}
	}
	c.width += valueWidth(v)
	// Reservoir sampling keeps a uniform sample of bounded size.
	c.seen++
	if len(c.sample) < sampleCap {
		c.sample = append(c.sample, v)
	} else if j := c.nextRand() % uint64(c.seen); j < sampleCap {
		c.sample[j] = v
	}
}

func (c *colAccum) finish(rows int) *ColumnStats {
	cs := &ColumnStats{Distinct: len(c.distinct), Min: c.min, Max: c.max}
	if rows > 0 {
		cs.AvgWidth = c.width / float64(rows)
	}
	if len(c.sample) > 0 {
		sorted := append([]table.Value(nil), c.sample...)
		slices.SortFunc(sorted, table.Compare)
		buckets := HistogramBuckets
		if len(sorted) < buckets {
			buckets = len(sorted)
		}
		bounds := make([]table.Value, 0, buckets)
		for b := 1; b <= buckets; b++ {
			idx := b*len(sorted)/buckets - 1
			bounds = append(bounds, sorted[idx])
		}
		cs.Hist = Histogram{Bounds: bounds}
	}
	return cs
}

// analyzer runs the one-pass ANALYZE over a stream of tuples.
type analyzer struct {
	name    string
	dataIdx []int
	cols    []*colAccum
	probIdx int
	varIdx  int
	rows    int
	width   float64
	probSum float64
	maxVar  int
}

func newAnalyzer(name string, schema *table.Schema) *analyzer {
	a := &analyzer{name: name, dataIdx: schema.DataIndexes(), probIdx: schema.ProbIndex(name), varIdx: schema.VarIndex(name)}
	for _, j := range a.dataIdx {
		a.cols = append(a.cols, newColAccum(schema.Cols[j].Name))
	}
	return a
}

func (a *analyzer) add(t table.Tuple) {
	a.rows++
	for i, j := range a.dataIdx {
		a.cols[i].add(t[j])
		a.width += valueWidth(t[j])
	}
	a.width += 16 // V/P pair
	if a.probIdx >= 0 && a.probIdx < len(t) {
		a.probSum += t[a.probIdx].F
	}
	if a.varIdx >= 0 && a.varIdx < len(t) {
		if v := int(t[a.varIdx].I); v > a.maxVar {
			a.maxVar = v
		}
	}
}

func (a *analyzer) finish() *TableStats {
	ts := &TableStats{Name: a.name, Rows: a.rows, MaxVar: a.maxVar, Cols: make(map[string]*ColumnStats, len(a.cols))}
	for _, c := range a.cols {
		ts.Cols[c.name] = c.finish(a.rows)
	}
	if a.rows > 0 {
		ts.AvgTupleWidth = a.width / float64(a.rows)
		ts.AvgProb = a.probSum / float64(a.rows)
	}
	return ts
}

// Analyze computes the statistics of one base table in a single pass over
// its in-memory relation.
func Analyze(pt *table.ProbTable) *TableStats {
	a := newAnalyzer(pt.Name, pt.Rel.Schema)
	for _, row := range pt.Rel.Rows {
		a.add(row)
	}
	return a.finish()
}

// AnalyzeHeapFile computes the same statistics by scanning a heap file
// through the storage layer's buffer pool — the ANALYZE path for tables
// that live on disk. schema describes the stored tuples; name is the base
// table name (for the V/P columns).
func AnalyzeHeapFile(path, name string, schema *table.Schema, pool *storage.BufferPool) (*TableStats, error) {
	h, err := storage.OpenHeapFile(path)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	sc := h.NewScanner(pool)
	defer sc.Close()
	a := newAnalyzer(name, schema)
	for {
		t, ok, err := sc.Next()
		if err != nil {
			return nil, fmt.Errorf("stats: analyzing %s: %w", name, err)
		}
		if !ok {
			break
		}
		a.add(t)
	}
	return a.finish(), nil
}

// fraction of b's value range at or below v, estimated from the equi-depth
// histogram: the fraction of buckets whose upper bound is ≤ v, refined by
// assuming v falls uniformly inside its bucket.
func (h Histogram) fractionLE(v table.Value) float64 {
	n := len(h.Bounds)
	if n == 0 {
		return 0.5
	}
	below, _ := slices.BinarySearchFunc(h.Bounds, v, table.Compare)
	// below buckets are entirely ≤ v; assume half of v's own bucket is.
	f := float64(below) / float64(n)
	if below < n {
		f += 0.5 / float64(n)
	}
	if f > 1 {
		f = 1
	}
	return f
}

// EqSelectivity estimates the fraction of rows matching attr = v: 1/distinct
// under the uniform-frequency assumption, 0 when v lies outside [min, max].
func (cs *ColumnStats) EqSelectivity(v table.Value) float64 {
	if cs == nil || cs.Distinct == 0 {
		return DefaultEqSelectivity
	}
	if table.Compare(v, cs.Min) < 0 || table.Compare(v, cs.Max) > 0 {
		// Out-of-range constants still get a floor: the stats may be stale.
		return 0.5 / float64(cs.Distinct)
	}
	return 1 / float64(cs.Distinct)
}

// RangeSelectivity estimates the fraction of rows with attr OP v for the
// inequality operators, from the equi-depth histogram.
func (cs *ColumnStats) RangeSelectivity(op string, v table.Value) float64 {
	if cs == nil {
		return DefaultRangeSelectivity
	}
	le := cs.Hist.fractionLE(v)
	var s float64
	switch op {
	case "<", "<=":
		s = le
	case ">", ">=":
		s = 1 - le
	case "<>", "!=":
		s = 1 - cs.EqSelectivity(v)
	default:
		s = DefaultRangeSelectivity
	}
	return clampSel(s)
}

// Default selectivities used when no statistics exist — the planner's
// historic constants.
const (
	DefaultEqSelectivity    = 0.02
	DefaultRangeSelectivity = 0.30
)

func clampSel(s float64) float64 {
	if s < 1e-6 {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}

// DistinctAfter scales a distinct count by a selectivity: with card·sel rows
// surviving, the expected number of distinct values kept follows the
// standard balls-in-bins estimate d·(1-(1-sel)^(n/d)) ≈ min(d, surviving).
func DistinctAfter(distinct int, rows, surviving float64) float64 {
	if distinct <= 0 || rows <= 0 {
		return surviving
	}
	d := float64(distinct)
	if surviving >= rows {
		return d
	}
	est := d * (1 - math.Pow(1-surviving/rows, rows/d))
	return math.Max(1, math.Min(est, surviving))
}

// String renders the table statistics compactly (for EXPLAIN and tools).
func (ts *TableStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rows, avg width %.1fB, avg prob %.3f", ts.Name, ts.Rows, ts.AvgTupleWidth, ts.AvgProb)
	names := make([]string, 0, len(ts.Cols))
	for n := range ts.Cols {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		c := ts.Cols[n]
		fmt.Fprintf(&b, "\n  %s: %d distinct in [%s, %s]", n, c.Distinct, c.Min, c.Max)
	}
	return b.String()
}
