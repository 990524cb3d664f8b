package conf

import (
	"fmt"
	"math"

	"repro/internal/table"
)

// IndProject is MystiQ's independent projection π^ind[keep] (Fig. 2, §VII):
// one sort+scan pass that groups src by the kept attributes and combines
// the probabilities of the — assumed independent — duplicates into one. A
// row's probability is the product of its P columns (the join below left
// both sides' columns in place); the output keeps the first of them. Rows
// are sorted on keep followed by the P columns, so a group's summation
// order is a function of the input bag and the result is bit-identical
// whatever the worker count, batch size or execution tier that produced
// src — the sort+scan operator's argument, unchanged. The output is a
// source over the pass's column chunks.
func IndProject(src *Source, keep []string, opts Options, stats *Stats) (*Source, error) {
	in := src.Schema
	groupCols := make([]int, len(keep))
	outCols := make([]table.Column, len(keep), len(keep)+1)
	for i, a := range keep {
		groupCols[i] = in.ColIndex(a)
		if groupCols[i] < 0 {
			return nil, fmt.Errorf("conf: π^ind attribute %s missing from %v", a, in.Names())
		}
		outCols[i] = in.Cols[groupCols[i]]
	}
	var probCols []int
	for i, c := range in.Cols {
		if c.Role == table.RoleProb {
			probCols = append(probCols, i)
		}
	}
	if len(probCols) == 0 {
		return nil, fmt.Errorf("conf: π^ind input lacks a P column: %v", in.Names())
	}
	outCols = append(outCols, in.Cols[probCols[0]])
	newAcc := func() accumulator { return &indAcc{probCols: probCols} }
	out, sp, err := scanGroups(src, groupCols, probCols, -1, newAcc, table.NewSchema(outCols...), opts)
	if err != nil {
		return nil, err
	}
	stats.addScan(sp)
	return out, nil
}

// indLogLimit is where the modelled POWER(10, Σlog) computation of
// MystiQ's probability aggregate gives up (§VII, "Query Engines").
const indLogLimit = -300.0

// indAcc is MystiQ's numerically fragile independent disjunction,
// 1 - 10^Σ log10(1.001 - p): it produces NaN on large groups of
// near-certain events, reproducing the runtime errors the paper reports for
// queries 1, 4, 12 and several Boolean variants (§VII).
type indAcc struct {
	probCols []int
	logSum   float64
}

func (a *indAcc) seed(b *table.ColBatch, row int) {
	a.logSum = 0
	a.step(b, row)
}

func (a *indAcc) step(b *table.ColBatch, row int) {
	p := 1.0
	for _, i := range a.probCols {
		p *= b.Cols[i].Floats[row]
	}
	a.logSum += math.Log10(1.001 - p)
}

func (a *indAcc) flush() float64 {
	if a.logSum < indLogLimit {
		// POWER underflows in PostgreSQL; MystiQ aborts at runtime.
		return math.NaN()
	}
	return 1 - math.Pow(10, a.logSum)
}
