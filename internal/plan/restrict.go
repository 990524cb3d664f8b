package plan

import (
	"repro/internal/signature"
)

// Restrict computes the probability-computation operator that may be placed
// on top of a subplan containing exactly the relations in sub (§V.B). The
// procedure follows the paper: start from the current signature, drop every
// table outside the subplan, keep the aggregation steps (starred tables),
// and split away propagation steps (concatenations) whose minimal cover in
// the full query signature is not contained in the subplan. The result is a
// list of component signatures — the operator [s1, …, sn].
func Restrict(full, cur signature.Sig, sub map[string]bool) []signature.Sig {
	pruned := prune(cur, sub)
	if pruned == nil {
		return nil
	}
	return split(pruned, full, sub)
}

// prune drops tables outside sub; empty subexpressions vanish.
func prune(s signature.Sig, sub map[string]bool) signature.Sig {
	switch x := s.(type) {
	case signature.Table:
		if sub[string(x)] {
			return x
		}
		return nil
	case signature.Star:
		inner := prune(x.Inner, sub)
		if inner == nil {
			return nil
		}
		return signature.NewStar(inner)
	case signature.Concat:
		var parts []signature.Sig
		for _, c := range x {
			if p := prune(c, sub); p != nil {
				parts = append(parts, p)
			}
		}
		if len(parts) == 0 {
			return nil
		}
		return signature.NewConcat(parts...)
	default:
		return nil
	}
}

// split decomposes a pruned signature into valid operator components: a
// concatenation (propagation step) is valid only when the minimal cover of
// its tables in the full query signature lies inside the subplan; invalid
// concatenations lose their enclosing star and decompose into their
// components, each keeping its own star (Ex. V.6: (Cust*Ord*)* at node p
// splits into [Cust*, Ord*] because Item is in the minimal cover of
// {Cust, Ord} but not in the subplan).
func split(s signature.Sig, full signature.Sig, sub map[string]bool) []signature.Sig {
	if allConcatsValid(s, full, sub) {
		return []signature.Sig{s}
	}
	switch x := s.(type) {
	case signature.Table:
		return []signature.Sig{x}
	case signature.Star:
		if c, ok := x.Inner.(signature.Concat); ok {
			var out []signature.Sig
			for _, comp := range c {
				out = append(out, split(comp, full, sub)...)
			}
			return out
		}
		return []signature.Sig{x}
	case signature.Concat:
		var out []signature.Sig
		for _, comp := range x {
			out = append(out, split(comp, full, sub)...)
		}
		return out
	default:
		return nil
	}
}

// allConcatsValid checks every concatenation node within s for propagation
// validity.
func allConcatsValid(s signature.Sig, full signature.Sig, sub map[string]bool) bool {
	switch x := s.(type) {
	case signature.Table:
		return true
	case signature.Star:
		return allConcatsValid(x.Inner, full, sub)
	case signature.Concat:
		cover, ok := signature.MinimalCover(full, signature.Tables(x))
		if !ok {
			return false
		}
		for _, t := range signature.Tables(cover) {
			if !sub[t] {
				return false
			}
		}
		for _, comp := range x {
			if !allConcatsValid(comp, full, sub) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
