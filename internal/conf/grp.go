package conf

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/signature"
	"repro/internal/table"
)

// GRPSequence evaluates the confidence operator by literally executing the
// SQL translation of Fig. 5: one GRP (sort + group-by with min/prob
// aggregates) statement per star and one propagation projection per
// concatenation, exactly as in the Q1…Q7 sequence of Fig. 6. It is
// quadratically more sort passes than the scheduled operator and exists as
// the executable semantics against which ComputeStats is cross-validated, and as
// the building block of maximally eager plans.
func GRPSequence(rel *table.Relation, sig signature.Sig) (*table.Relation, error) {
	if err := validateSources(rel.Schema, sig); err != nil {
		return nil, err
	}
	cur := engine.Operator(engine.NewMemScan(rel))
	cur, vp, err := applySig(cur, sig)
	if err != nil {
		return nil, err
	}
	// Final: select attrs(Q') − {V}: the data columns plus the surviving
	// probability column, renamed to conf.
	s := cur.Schema()
	var exprs []engine.Expr
	var outCols []table.Column
	for i, c := range s.Cols {
		if c.Role == table.RoleData {
			exprs = append(exprs, engine.ColRef{Idx: i, Name: c.Name})
			outCols = append(outCols, c)
		}
	}
	pi := s.ColIndex(vp.p)
	if pi < 0 {
		return nil, fmt.Errorf("conf: probability column %s lost during GRP sequence", vp.p)
	}
	exprs = append(exprs, engine.ColRef{Idx: pi, Name: ConfCol})
	outCols = append(outCols, table.DataCol(ConfCol, table.KindFloat))
	proj, err := engine.NewProject(cur, table.NewSchema(outCols...), exprs)
	if err != nil {
		return nil, err
	}
	return engine.Collect(engine.NewHashDistinct(proj))
}

// vpCols names the variable/probability column pair that represents the
// subexpression processed so far ("the table encountered last in the
// bottom-up traversal", Fig. 5).
type vpCols struct{ v, p string }

// applySig is J·K of Fig. 5.
func applySig(in engine.Operator, sig signature.Sig) (engine.Operator, vpCols, error) {
	switch x := sig.(type) {
	case signature.Table:
		return in, vpCols{v: "V(" + string(x) + ")", p: "P(" + string(x) + ")"}, nil

	case signature.Star:
		// Jα*K: process α, then GRP[attrs−{V1,P1}; min(V1), prob(P1)].
		cur, vp, err := applySig(in, x.Inner)
		if err != nil {
			return nil, vpCols{}, err
		}
		s := cur.Schema()
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
		g := engine.GroupSorted(cur, groupBy, []engine.AggSpec{
			{Kind: engine.AggMin, Col: vi, Out: s.Cols[vi]},
			{Kind: engine.AggProbOr, Col: pi, Out: s.Cols[pi]},
		})
		return g, vp, nil

	case signature.Concat:
		// JαβK: process right-to-left, then fold each pair by a propagation
		// projection P1 := P1·P2, dropping V2 and P2.
		cur := in
		var right vpCols
		for i := len(x) - 1; i >= 0; i-- {
			var err error
			var left vpCols
			cur, left, err = applySig(cur, x[i])
			if err != nil {
				return nil, vpCols{}, err
			}
			if i == len(x)-1 {
				right = left
				continue
			}
			cur, err = propagate(cur, left, right)
			if err != nil {
				return nil, vpCols{}, err
			}
			right = left
		}
		return cur, right, nil

	default:
		return nil, vpCols{}, fmt.Errorf("conf: unknown signature shape %T", sig)
	}
}

// propagate implements the JαβK projection of Fig. 5: multiply P1 by P2,
// drop V2 and P2.
func propagate(in engine.Operator, left, right vpCols) (engine.Operator, error) {
	s := in.Schema()
	p1 := s.ColIndex(left.p)
	v2 := s.ColIndex(right.v)
	p2 := s.ColIndex(right.p)
	if p1 < 0 || v2 < 0 || p2 < 0 {
		return nil, fmt.Errorf("conf: propagation: columns %s/%s/%s missing in %v", left.p, right.v, right.p, s.Names())
	}
	var exprs []engine.Expr
	var cols []table.Column
	for i, c := range s.Cols {
		switch i {
		case v2, p2:
			continue
		case p1:
			exprs = append(exprs, engine.Mul{L: engine.ColRef{Idx: p1, Name: left.p}, R: engine.ColRef{Idx: p2, Name: right.p}})
			cols = append(cols, c)
		default:
			exprs = append(exprs, engine.ColRef{Idx: i, Name: c.Name})
			cols = append(cols, c)
		}
	}
	return engine.NewProject(in, table.NewSchema(cols...), exprs)
}
