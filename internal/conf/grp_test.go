package conf

import (
	"fmt"
	"slices"

	"repro/internal/signature"
	"repro/internal/table"
)

// grpSequence is the operator's reference: Fig. 5's semantics evaluated one
// SQL statement at a time, as in the Q1…Q7 sequence of Fig. 6 — one GRP
// (group by every column but the current V/P pair; min V, independent-or P)
// per star and one propagation projection (P1 := P1·P2, dropping V2 and P2)
// per concatenation, then the distinct data columns with the surviving P as
// conf. Groups are map entries (table.TupleSet: Compare equality, as the
// operator's sort keys have); the answer is sorted on its data columns.
func grpSequence(rel *table.Relation, sig signature.Sig) (*table.Relation, error) {
	if err := validateSources(rel.Schema, sig); err != nil {
		return nil, err
	}
	cur, vp, err := grpApply(rel, sig)
	if err != nil {
		return nil, err
	}
	data := cur.Schema.DataIndexes()
	pi := cur.Schema.ColIndex(vp.p)
	if pi < 0 {
		return nil, fmt.Errorf("conf: probability column %s lost during GRP sequence", vp.p)
	}
	cols := append(slices.Clone(cur.Schema.Project(data).Cols), table.DataCol(ConfCol, table.KindFloat))
	out := table.NewRelation(table.NewSchema(cols...))
	all := make([]int, len(cols))
	for i := range all {
		all[i] = i
	}
	seen := table.NewTupleSet(all, 0)
	for _, row := range cur.Rows {
		t := append(row.Project(data), row[pi])
		if _, added := seen.Add(t, false); added {
			out.Rows = append(out.Rows, t)
		}
	}
	key := all[:len(data)]
	slices.SortStableFunc(out.Rows, func(a, b table.Tuple) int { return table.CompareOn(a, b, key) })
	return out, nil
}

// vpCols names the variable/probability column pair that represents the
// subexpression processed so far ("the table encountered last in the
// bottom-up traversal", Fig. 5).
type vpCols struct{ v, p string }

// grpApply is J·K of Fig. 5 over a materialized relation.
func grpApply(rel *table.Relation, sig signature.Sig) (*table.Relation, vpCols, error) {
	switch x := sig.(type) {
	case signature.Table:
		return rel, vpCols{v: "V(" + string(x) + ")", p: "P(" + string(x) + ")"}, nil

	case signature.Star:
		// Jα*K: process α, then GRP[attrs−{V1,P1}; min(V1), prob(P1)].
		cur, vp, err := grpApply(rel, x.Inner)
		if err != nil {
			return nil, vpCols{}, err
		}
		s := cur.Schema
		vi, pi := s.ColIndex(vp.v), s.ColIndex(vp.p)
		if vi < 0 || pi < 0 {
			return nil, vpCols{}, fmt.Errorf("conf: GRP aggregation: columns %s/%s missing in %v", vp.v, vp.p, s.Names())
		}
		var groupBy []int
		for i := range s.Cols {
			if i != vi && i != pi {
				groupBy = append(groupBy, i)
			}
		}
		// A group's stored row carries the running min(V) and Π(1-P).
		groups := table.NewTupleSet(groupBy, 0)
		out := table.NewRelation(s)
		for _, row := range cur.Rows {
			g, added := groups.Add(row, true)
			if added {
				g[pi] = table.Float(1 - row[pi].F)
				out.Rows = append(out.Rows, g)
				continue
			}
			if table.Compare(row[vi], g[vi]) < 0 {
				g[vi] = row[vi]
			}
			g[pi].F *= 1 - row[pi].F
		}
		for _, g := range out.Rows {
			g[pi].F = 1 - g[pi].F
		}
		return out, vp, nil

	case signature.Concat:
		// JαβK: process right-to-left, then fold each pair by a propagation
		// projection P1 := P1·P2, dropping V2 and P2.
		cur := rel
		var right vpCols
		for i := len(x) - 1; i >= 0; i-- {
			var err error
			var left vpCols
			cur, left, err = grpApply(cur, x[i])
			if err != nil {
				return nil, vpCols{}, err
			}
			if i < len(x)-1 {
				if cur, err = grpPropagate(cur, left, right); err != nil {
					return nil, vpCols{}, err
				}
			}
			right = left
		}
		return cur, right, nil

	default:
		return nil, vpCols{}, fmt.Errorf("conf: unknown signature shape %T", sig)
	}
}

// grpPropagate is the JαβK projection of Fig. 5: multiply P1 by P2, drop V2
// and P2.
func grpPropagate(rel *table.Relation, left, right vpCols) (*table.Relation, error) {
	s := rel.Schema
	p1, v2, p2 := s.ColIndex(left.p), s.ColIndex(right.v), s.ColIndex(right.p)
	if p1 < 0 || v2 < 0 || p2 < 0 {
		return nil, fmt.Errorf("conf: propagation: columns %s/%s/%s missing in %v", left.p, right.v, right.p, s.Names())
	}
	var keep []int
	for i := range s.Cols {
		if i != v2 && i != p2 {
			keep = append(keep, i)
		}
	}
	out := table.NewRelation(s.Project(keep))
	for _, row := range rel.Rows {
		t := row.Project(keep)
		t[slices.Index(keep, p1)] = table.Float(row[p1].F * row[p2].F)
		out.Rows = append(out.Rows, t)
	}
	return out, nil
}
