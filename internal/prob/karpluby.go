package prob

import (
	"math/bits"
	"sort"
)

// The Karp–Luby estimator (Karp & Luby 1983; Karp, Luby & Madras 1989) for
// DNF probability. Instead of sampling full possible worlds — where a tiny
// Pr[φ] makes satisfying worlds vanishingly rare — it samples from the
// weighted union of the clauses' satisfying sets and corrects for overlap:
//
//	U      = Σ_i Pr[clause_i]            (clause weights, known exactly)
//	sample = pick clause i with probability Pr[clause_i]/U,
//	         draw a world conditioned on clause i being true
//	X      = U·1[i is the first satisfied clause of the drawn world]
//
// The estimate is U·(hit fraction); callers clamp it to [0, 1].
//
// X is an unbiased estimator of Pr[φ]: every satisfying world is counted
// exactly once (for its first satisfied clause), with importance weight
// cancelling the conditioning. Samples lie in {0, U}, so the Hoeffding
// stopping rule (SampleBound) applies with width U — when U < 1 this beats
// the naive sampler's width of 1, which is how MCAuto chooses between them.

// pickClause samples a clause index proportionally to its weight.
func (s *sampler) pickClause() int {
	r := float64(s.rng.Uint64()>>11) * 0x1p-53 * s.U
	return min(sort.SearchFloat64s(s.cum, r), len(s.cum)-1)
}

// countKarpLuby turns the block sample drew into Karp–Luby samples and
// counts the hits. Every live lane picks a clause and forces it true in its
// world — the draw conditioned on the picked clause; the other variables
// keep their marginals. One in-order pass over the clauses then finds every
// lane's canonical (first satisfied) clause: pending holds the lanes no
// earlier clause satisfied, and a lane is a hit iff the clause that settles
// it is the one it picked. Every lane's pick holds by construction, so the
// pass ends by the largest picked index.
func (s *sampler) countKarpLuby(lanes int) int {
	var pick [64]int32
	for l := range lanes {
		i := s.pickClause()
		pick[l] = int32(i)
		s.picked[i] |= 1 << l
		for _, v := range s.clauses[i] {
			s.words[v] |= 1 << l
		}
	}
	pending, hits := ^uint64(0)>>(64-lanes), 0
	for j, cl := range s.clauses {
		sat := s.satisfied(cl, pending)
		hits += bits.OnesCount64(sat & s.picked[j])
		if pending &^= sat; pending == 0 {
			break
		}
	}
	for _, i := range pick[:lanes] {
		s.picked[i] = 0
	}
	return hits
}
