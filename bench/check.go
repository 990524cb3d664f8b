package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"

	"repro/internal/plan"
	"repro/internal/table"
)

// answer is a query result in the checker's canonical form: one entry per
// row, keyed by the rendered data columns, sorted by key. Every plan style
// returns head columns followed by the conf column, so the key is
// style-independent.
type answer struct {
	keys  []string
	confs []float64
}

func canon(rel *table.Relation) (*answer, error) {
	nc := rel.Schema.Len()
	if nc == 0 || rel.Schema.Cols[nc-1].Name != "conf" {
		return nil, fmt.Errorf("result schema %v does not end in conf", rel.Schema.Names())
	}
	type kv struct {
		k string
		c float64
	}
	rows := make([]kv, len(rel.Rows))
	var buf []byte
	for i, r := range rel.Rows {
		buf = buf[:0]
		for _, v := range r[:nc-1] {
			buf = append(buf, byte(v.Kind))
			switch v.Kind {
			case table.KindString:
				buf = strconv.AppendInt(buf, int64(len(v.S)), 10)
				buf = append(buf, ':')
				buf = append(buf, v.S...)
			case table.KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
			default:
				buf = strconv.AppendInt(buf, v.I, 10)
			}
			buf = append(buf, 0)
		}
		rows[i] = kv{string(buf), r[nc-1].F}
	}
	slices.SortFunc(rows, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	a := &answer{keys: make([]string, len(rows)), confs: make([]float64, len(rows))}
	for i, r := range rows {
		a.keys[i], a.confs[i] = r.k, r.c
	}
	return a, nil
}

// digest is FNV-64a over the sorted (row, confidence bits) pairs, so two
// commits' outputs can be diffed by one number per query.
func (a *answer) digest() uint64 {
	h := fnv.New64a()
	var bits [8]byte
	for i, k := range a.keys {
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(a.confs[i]))
		h.Write(bits[:])
	}
	return h.Sum64()
}

// agreement is what the checker demands of an answer against the exact
// reference: every confidence within tol — except that a share `outliers` of
// the rows may be off by up to 2·tol, which is what an (ε, δ) estimator
// promises (each answer within ε with probability 1-δ; seed 38 has one of
// U's 2 352 answers off by 0.0527).
type agreement struct {
	tol      float64
	outliers float64
}

func agreementFor(style plan.Style) agreement {
	switch style {
	case plan.MonteCarlo:
		return agreement{tol: mcEpsilon, outliers: mcDelta}
	case plan.SafeMystiQ:
		return agreement{tol: mystiqTol}
	default:
		return agreement{tol: exactTol}
	}
}

// compare checks got against the reference row for row: same rows, every
// confidence in agreement. It returns the largest confidence error seen and
// a description of the first disagreement ("" when they agree). An empty
// result against a non-empty reference fails on the row count.
func (a *answer) compare(ref *answer, want agreement) (maxErr float64, problem string) {
	if len(a.keys) != len(ref.keys) {
		return 0, fmt.Sprintf("%d rows, reference has %d", len(a.keys), len(ref.keys))
	}
	over, first := 0, -1
	for i, k := range a.keys {
		if k != ref.keys[i] {
			return maxErr, fmt.Sprintf("row %d differs from the reference row", i)
		}
		e := math.Abs(a.confs[i] - ref.confs[i])
		if !(e <= want.tol) { // !(<=) also catches NaN
			over++
			if first < 0 || !(e <= 2*want.tol) {
				first = i
			}
		}
		maxErr = math.Max(maxErr, e)
	}
	allowed := int(want.outliers * float64(len(a.keys)))
	if over > allowed || (over > 0 && !(maxErr <= 2*want.tol)) {
		problem = fmt.Sprintf("%d rows off by more than %g (%d allowed), e.g. row %d: confidence %v, reference %v",
			over, want.tol, allowed, first, a.confs[first], ref.confs[first])
	}
	return maxErr, problem
}

// checker counts what the benchmark attempted and what failed, and carries
// the worst confidence error.
type checker struct {
	attempted, failed int
	maxErr            float64
	problems          []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// canon counts one executed query and returns its canonical answer, or nil
// (and a counted failure) when the run or its result shape failed.
func (c *checker) canon(r *row, res *plan.Result, err error) *answer {
	c.attempted++
	if err == nil {
		var got *answer
		if got, err = canon(res.Rows); err == nil {
			return got
		}
	}
	c.fail("%s: %v", r.id, err)
	return nil
}

// checkAgainst compares one executed query's result with the reference
// answer of its row. It returns the canonical answer, or nil when the run
// failed or disagrees.
func (c *checker) checkAgainst(r *row, res *plan.Result, err error, want agreement) *answer {
	got := c.canon(r, res, err)
	if got == nil {
		return nil
	}
	e, problem := got.compare(r.ref, want)
	c.maxErr = math.Max(c.maxErr, e)
	if problem != "" {
		c.fail("%s: %s", r.id, problem)
		return nil
	}
	return got
}

// checkDigest re-checks one executed query of a timed pass against the
// warm-up pass's row count and digest.
func (c *checker) checkDigest(r *row, res *plan.Result, err error) {
	got := c.canon(r, res, err)
	if got == nil {
		return
	}
	if d := got.digest(); len(got.keys) != r.rows || d != r.digest {
		c.fail("%s: timed pass returned %d rows digest %016x, warm-up %d rows digest %016x",
			r.id, len(got.keys), d, r.rows, r.digest)
	}
}
