package plan

import (
	"repro/internal/logical"
	"repro/internal/signature"
)

// OpPasses is the cost model's count of the sort+scan passes an eager
// operator runs.
var OpPasses = opPasses

// ScheduledOps lists the operators the prepared plan's eager placement
// points apply, bottom-up: the static schedule buildStaged computed, which
// the lowering runs as it stands.
func (p *Prepared) ScheduledOps() []signature.Sig {
	var ops []signature.Sig
	var walk func(n logical.Node)
	walk = func(n logical.Node) {
		for _, in := range n.Inputs() {
			walk(in)
		}
		if cf, ok := n.(*logical.Conf); ok {
			ops = append(ops, cf.Ops...)
		}
	}
	walk(p.b.lp.Root)
	return ops
}

// PricedPasses is the number of sort+scan passes the cost model prices for
// the prepared plan — what its runs report as Stats.Scans.
func (p *Prepared) PricedPasses() (int, error) {
	cs, _, err := costPlan(p.c, p.q, p.spec, p.b)
	if err != nil {
		return 0, err
	}
	return cs.passes, nil
}
