package plan

import (
	"repro/internal/logical"
	"repro/internal/signature"
)

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
