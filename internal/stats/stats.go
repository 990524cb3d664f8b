// Package stats gathers and serves the catalog statistics behind the
// cost-based planner: per-table row counts and average tuple widths,
// per-attribute distinct counts and equi-depth histograms, and the
// selectivity / cardinality estimators built on them. Statistics are
// collected by a single ANALYZE pass over each base table's column batches —
// its in-memory chunks or a heap file's scan through internal/storage — and
// cached on the planner catalog.
package stats

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/engine"
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
	col      []int // the column's index, as HashInto takes it
	distinct map[uint64]struct{}
	hashes   []uint64
	min, max table.Value
	first    bool
	width    float64
	sample   []table.Value // reservoir for histogram boundaries
	seen     int
	rngState uint64
}

func newColAccum(name string, col int) *colAccum {
	return &colAccum{
		name:     name,
		col:      []int{col},
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

// cellWidth is the encoded width of physical row i's cell: its length for a
// string, 8 for anything else (NULL included).
func cellWidth(v *table.ColVec, i int) float64 {
	if v.Kind != table.KindString || v.Null(i) {
		return 8
	}
	if v.Mode == table.StrHeader {
		return float64(len(v.Strs[i]))
	}
	return float64(v.Offs[i+1] - v.Offs[i])
}

// add accumulates the column's cells of b's live rows, in row order. Cells
// are hashed in place (ColBatch.HashInto, bit-identical to table.HashOn) and
// compared in place (ColVec.CompareValue); a cell is boxed as a Value only
// when it becomes the minimum, the maximum or a reservoir sample.
func (c *colAccum) add(b *table.ColBatch) {
	c.hashes = b.HashInto(c.col, c.hashes)
	for _, h := range c.hashes {
		c.distinct[h] = struct{}{}
	}
	v := &b.Cols[c.col[0]]
	for i := range c.hashes {
		row := b.RowID(i)
		if c.first {
			c.min, c.max, c.first = v.Value(row), v.Value(row), false
		} else {
			if v.CompareValue(row, c.min) < 0 {
				c.min = v.Value(row)
			}
			if v.CompareValue(row, c.max) > 0 {
				c.max = v.Value(row)
			}
		}
		c.width += cellWidth(v, row)
		// Reservoir sampling keeps a uniform sample of bounded size.
		c.seen++
		if len(c.sample) < sampleCap {
			c.sample = append(c.sample, v.Value(row))
		} else if j := c.nextRand() % uint64(c.seen); j < sampleCap {
			c.sample[j] = v.Value(row)
		}
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

// analyzer runs the one-pass ANALYZE over a table's column batches — the
// chunks of an in-memory table, or a heap scan's batches. It is an
// engine.Sink.
type analyzer struct {
	name    string
	cols    []*colAccum
	probIdx int
	varIdx  int
	rows    int
	probSum float64
	maxVar  int
}

func newAnalyzer(name string, schema *table.Schema) *analyzer {
	a := &analyzer{name: name, probIdx: schema.ProbIndex(name), varIdx: schema.VarIndex(name)}
	for _, j := range schema.DataIndexes() {
		a.cols = append(a.cols, newColAccum(schema.Cols[j].Name, j))
	}
	return a
}

// AddBatch accumulates b's live rows: each data column's cells, then the
// V/P pair of every row.
func (a *analyzer) AddBatch(b *table.ColBatch) error {
	n := b.Rows()
	a.rows += n
	for _, c := range a.cols {
		c.add(b)
	}
	for i := 0; i < n; i++ {
		row := b.RowID(i)
		if a.probIdx >= 0 {
			a.probSum += b.Cols[a.probIdx].Floats[row]
		}
		if a.varIdx >= 0 {
			if v := int(b.Cols[a.varIdx].Ints[row]); v > a.maxVar {
				a.maxVar = v
			}
		}
	}
	return nil
}

func (a *analyzer) finish() *TableStats {
	ts := &TableStats{Name: a.name, Rows: a.rows, MaxVar: a.maxVar, Cols: make(map[string]*ColumnStats, len(a.cols))}
	width := 16 * float64(a.rows) // the V/P pair
	for _, c := range a.cols {
		ts.Cols[c.name] = c.finish(a.rows)
		width += c.width
	}
	if a.rows > 0 {
		ts.AvgTupleWidth = width / float64(a.rows)
		ts.AvgProb = a.probSum / float64(a.rows)
	}
	return ts
}

// Analyze computes the statistics of one base table in a single pass over
// its in-memory column chunks.
func Analyze(pt *table.ProbTable) *TableStats {
	a := newAnalyzer(pt.Name, pt.Rel.Schema)
	for _, c := range pt.Rel.Chunks {
		a.AddBatch(c)
	}
	return a.finish()
}

// AnalyzeHeapFile computes the same statistics by scanning a heap file
// through the storage layer's buffer pool (engine.ColHeapScan) — the ANALYZE
// path for tables that live on disk. schema describes the stored tuples;
// name is the base table name (for the V/P columns).
func AnalyzeHeapFile(path, name string, schema *table.Schema, pool *storage.BufferPool) (*TableStats, error) {
	h, err := storage.OpenHeapFile(path)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	a := newAnalyzer(name, schema)
	if err := engine.StreamCtx(context.TODO(), engine.NewColHeapScan(h, pool, schema), a); err != nil {
		return nil, fmt.Errorf("stats: analyzing %s: %w", name, err)
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
