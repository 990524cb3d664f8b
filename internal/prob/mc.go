package prob

import (
	"context"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/pool"
)

// This file implements the Monte Carlo side of confidence computation:
// approximate probability estimation for DNF lineage whose exact evaluation
// is #P-hard (§II.A). Two estimators are provided — the naive
// possible-worlds estimator and the Karp–Luby importance estimator
// (karpluby.go) — behind a single (ε, δ) interface: the returned estimate is
// within ε of the true probability with probability at least 1-δ. Both
// count over the blocks of one kernel (sampler.sample) that draws 64
// possible worlds per machine word. EstimateAllCtx fans a batch of per-answer
// formulas out to a worker pool with one deterministic generator per
// formula, so results are reproducible regardless of scheduling.

// MCMethod selects the sampling estimator.
type MCMethod int

// Estimation methods.
const (
	// MCAuto resolves each formula exactly when a polynomial shortcut
	// applies (empty, single-clause or variable-disjoint DNF) and otherwise picks
	// the sampler with the lower (ε, δ) sample bound: Karp–Luby when the
	// total clause weight U is below 1, the naive sampler otherwise.
	MCAuto MCMethod = iota
	// MCNaive always samples full possible worlds, even when an exact
	// shortcut exists (useful for testing the sampler itself).
	MCNaive
	// MCKarpLuby always runs the Karp–Luby estimator.
	MCKarpLuby
)

// String names the method.
func (m MCMethod) String() string {
	switch m {
	case MCAuto:
		return "auto"
	case MCNaive:
		return "naive"
	case MCKarpLuby:
		return "karp-luby"
	default:
		return "?"
	}
}

// Default Monte Carlo parameters.
const (
	DefaultEpsilon    = 0.05
	DefaultDelta      = 0.01
	DefaultMaxSamples = 1 << 22
)

// MCOptions configures Monte Carlo confidence estimation.
type MCOptions struct {
	// Epsilon is the additive error bound: |estimate - Pr[φ]| ≤ Epsilon
	// with probability ≥ 1-Delta. 0 defaults to DefaultEpsilon.
	Epsilon float64
	// Delta is the per-formula failure probability. 0 defaults to
	// DefaultDelta.
	Delta float64
	// Seed makes estimation deterministic: the same seed, options and
	// input produce bit-identical estimates. 0 is a valid seed.
	Seed int64
	// MaxSamples caps the per-formula sample count. When the (ε, δ) bound
	// asks for more, the estimator runs MaxSamples and reports the weaker
	// ε it actually guarantees. 0 defaults to DefaultMaxSamples.
	MaxSamples int
	// Method forces a sampler; MCAuto (the zero value) picks per formula.
	Method MCMethod
	// Workers sizes EstimateAllCtx's worker pool; 0 defaults to GOMAXPROCS.
	Workers int
	// Pool, when set, supplies the worker pool — the engine passes its
	// shared pool here so estimation draws from the same slot budget as
	// every other parallel stage. Workers is ignored then.
	Pool *pool.Pool
	// Stop, when non-nil, is polled between sample blocks (every
	// cancelCheckInterval draws); once it reports true the sampler returns
	// the running estimate over the samples drawn so far with the wider ε
	// those samples actually guarantee, and the estimate reports
	// Stopped=true. The planner arms it with a deadline-watermark probe.
	Stop func() bool
}

func (o MCOptions) withDefaults() MCOptions {
	if o.Epsilon <= 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		o.Delta = DefaultDelta
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxSamples
	}
	return o
}

// MCEstimate is the outcome of estimating one formula.
type MCEstimate struct {
	// P is the estimated (or exactly computed) probability, in [0, 1].
	P float64
	// Samples is the number of Monte Carlo samples drawn (0 when the
	// formula was resolved exactly).
	Samples int
	// Method records how the estimate was obtained: "exact", "naive" or
	// "karp-luby".
	Method string
	// Epsilon is the additive error guaranteed with probability 1-Delta:
	// the requested ε, or a weaker bound when MaxSamples capped the run
	// (0 for exact results).
	Epsilon float64
	// Delta is the failure probability backing Epsilon.
	Delta float64
	// Capped reports that MaxSamples cut the run short of the sample
	// count the requested (ε, δ) bound asked for — the early-stop reason
	// observability surfaces as "sample cap" rather than "target met".
	Capped bool
	// Stopped reports that MCOptions.Stop cut the run short: P is the
	// running estimate over Samples draws and Epsilon the (wider) bound
	// they actually guarantee.
	Stopped bool
}

// SampleBound returns the Hoeffding sample count guaranteeing an additive
// (ε, δ) bound for the empirical mean of i.i.d. samples in [0, width]:
// n = ⌈width²·ln(2/δ) / (2ε²)⌉. This is the estimators' stopping rule.
func SampleBound(eps, delta, width float64) int {
	n := math.Ceil(width * width * math.Log(2/delta) / (2 * eps * eps))
	if n < 1 {
		return 1
	}
	if n > float64(math.MaxInt32) {
		return math.MaxInt32
	}
	return int(n)
}

// achievedEps inverts SampleBound: the additive bound n samples in
// [0, width] actually guarantee at confidence 1-δ.
func achievedEps(n int, delta, width float64) float64 {
	return width * math.Sqrt(math.Log(2/delta)/(2*float64(n)))
}

// sampler is one worker's estimator state: a DNF lowered to index form —
// variables become dense indexes, clauses index lists carrying their weight
// Π p (the clause's probability as an independent conjunction) — plus the
// block kernel's generator and scratch. load refills it for the next
// formula, so estimating a batch allocates per worker, not per formula.
type sampler struct {
	rng     rand.PCG
	lits    []uint64  // load's scratch: (variable, literal position) pairs
	probs   []float64 // per variable, ascending by id: Pr[variable = true]
	thr     []uint64  // probs as 64-bit thresholds (threshold)
	words   []uint64  // the current block: bit ℓ of words[i] is variable i in world ℓ
	flat    []int32   // backing array of clauses
	clauses [][]int32 // per clause: variable indexes
	weights []float64 // per clause: product of member probabilities
	cum     []float64 // cumulative weights, for clause sampling
	picked  []uint64  // Karp–Luby: per clause, the block's lanes that picked it
	U       float64   // total weight Σ weights
}

// load lowers d into s and seeds the generator. Variables get their dense
// indexes from one sort of the packed (variable, literal position) pairs —
// nothing is hashed, and nothing allocated once the scratch has grown to
// the batch's largest formula.
func (s *sampler) load(d *DNF, a *Assignment, seed1, seed2 uint64) {
	s.rng.Seed(seed1, seed2)
	s.lits = s.lits[:0]
	for _, cl := range d.Clauses {
		for _, v := range cl {
			if v.Valid() {
				s.lits = append(s.lits, uint64(v)<<32|uint64(len(s.lits)))
			}
		}
	}
	slices.Sort(s.lits)
	s.flat = slices.Grow(s.flat[:0], len(s.lits))[:len(s.lits)]
	s.probs, s.thr = s.probs[:0], s.thr[:0]
	prev := NoVar
	for _, l := range s.lits {
		if v := Var(l >> 32); v != prev {
			prev = v
			p := a.P(v)
			s.probs = append(s.probs, p)
			s.thr = append(s.thr, threshold(p))
		}
		s.flat[uint32(l)] = int32(len(s.probs) - 1)
	}
	s.words = slices.Grow(s.words[:0], len(s.probs))[:len(s.probs)]
	s.picked = slices.Grow(s.picked[:0], len(d.Clauses))[:len(d.Clauses)]
	clear(s.picked)
	s.clauses, s.weights, s.cum, s.U = s.clauses[:0], s.weights[:0], s.cum[:0], 0
	flat := s.flat
	for _, cl := range d.Clauses {
		n := 0
		w := 1.0
		for _, v := range cl {
			if v.Valid() {
				w *= s.probs[flat[n]]
				n++
			}
		}
		s.clauses = append(s.clauses, flat[:n:n])
		flat = flat[n:]
		s.weights = append(s.weights, w)
		s.U += w
		s.cum = append(s.cum, s.U)
	}
}

// exact resolves the polynomially computable cases: the empty DNF (false),
// any empty clause (true), a single clause (independent conjunction), and
// variable-disjoint clauses (independent disjunction of conjunctions).
func (s *sampler) exact() (float64, bool) {
	if len(s.clauses) == 0 {
		return 0, true
	}
	for _, cl := range s.clauses {
		if len(cl) == 0 {
			return 1, true
		}
	}
	if len(s.clauses) == 1 {
		return s.weights[0], true
	}
	clear(s.words) // scratch: non-zero marks a variable already seen
	for _, cl := range s.clauses {
		for _, i := range cl {
			if s.words[i] != 0 {
				return 0, false
			}
			s.words[i] = 1
		}
	}
	return OrAll(s.weights), true
}

// cancelCheckInterval is how many samples a sampler draws between context
// and Stop checks (128 blocks): rare enough to be free, frequent enough
// that cancellation of a multi-million-sample run returns in well under a
// millisecond of work.
const cancelCheckInterval = 8192

// threshold is p as the 64-bit fixed-point fraction a lane's uniform draw is
// compared against; math.MaxUint64, which no p < 1 reaches, marks p = 1.
func threshold(p float64) uint64 {
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(math.Ldexp(p, 64))
}

// bernoulli returns a word whose 64 lanes are independent Bernoulli(p) bits
// for the p of thr. Lane ℓ's uniform u is bit-sliced over the generator's
// words — the k-th word drawn holds bit 63-k of every lane's u — and u < thr
// is decided most significant bit first: a lane is settled at the first bit
// where u and thr differ, so the undecided set halves per word and the loop
// ends after ≈ 7–8 words instead of 64 scalar draws, exact to thr's 64 bits.
// p = 1 consumes nothing.
func bernoulli(g *rand.PCG, thr uint64) uint64 {
	if thr == math.MaxUint64 {
		return thr
	}
	var below uint64
	open := ^uint64(0) // lanes whose u equals thr on every bit so far
	for ; open != 0 && thr != 0; thr <<= 1 {
		r := g.Uint64()
		bit := -(thr >> 63) // all ones iff thr's current bit is set
		below |= open &^ r & bit
		open &= ^(r ^ bit)
	}
	return below // a lane still open has u ≥ thr: thr's remaining bits are 0
}

// sample is the one world-drawing kernel behind both estimators. It draws
// up to n samples in blocks of 64 — one word per variable, lane ℓ of every
// word being possible world ℓ — and returns how many samples the estimator
// counted and how many were drawn: n, or the multiple of
// cancelCheckInterval at which stop fired. The last block's surplus lanes
// are masked out, so exactly n samples count.
func (s *sampler) sample(ctx context.Context, n int, method MCMethod, stop func() bool) (hits, drawn int, err error) {
	for done := 0; done < n; done += 64 {
		if done%cancelCheckInterval == 0 {
			if ctx.Err() != nil {
				return 0, 0, ctx.Err()
			}
			if done > 0 && stop != nil && stop() {
				return hits, done, nil
			}
		}
		lanes := min(n-done, 64)
		for i, t := range s.thr {
			s.words[i] = bernoulli(&s.rng, t)
		}
		if method == MCKarpLuby {
			hits += s.countKarpLuby(lanes)
		} else {
			hits += s.countNaive(lanes)
		}
	}
	return hits, n, nil
}

// satisfied returns the lanes of in whose world satisfies clause cl.
func (s *sampler) satisfied(cl []int32, in uint64) uint64 {
	for _, i := range cl {
		in &= s.words[i]
	}
	return in
}

// countNaive counts the block's worlds satisfying the formula — the
// definitional estimator, with sample range [0, 1].
func (s *sampler) countNaive(lanes int) int {
	live := ^uint64(0) >> (64 - lanes)
	var sat uint64
	for _, cl := range s.clauses {
		if sat |= s.satisfied(cl, live); sat == live {
			break
		}
	}
	return bits.OnesCount64(sat)
}

// estimate runs the loaded formula through the configured estimator.
func (s *sampler) estimate(ctx context.Context, o MCOptions) (MCEstimate, error) {
	method := o.Method
	if len(s.clauses) == 0 {
		// The empty DNF is false regardless of method; Karp–Luby in
		// particular has no clause to sample from (U = 0).
		return MCEstimate{P: 0, Method: "exact", Delta: o.Delta}, nil
	}
	if method == MCAuto {
		if p, ok := s.exact(); ok {
			return MCEstimate{P: p, Method: "exact", Delta: o.Delta}, nil
		}
		if s.U < 1 {
			method = MCKarpLuby
		} else {
			method = MCNaive
		}
	}
	width := 1.0
	if method == MCKarpLuby {
		// The Karp–Luby estimator averages samples in {0, U}; its Hoeffding
		// range is U. (Pr[φ] ≤ min(U, 1), so U < 1 means fewer samples.)
		width = s.U
	}
	eps := o.Epsilon
	capped := false
	n := SampleBound(eps, o.Delta, width)
	if n > o.MaxSamples {
		n = o.MaxSamples
		eps = achievedEps(n, o.Delta, width)
		capped = true
	}
	hits, drawn, err := s.sample(ctx, n, method, o.Stop)
	if err != nil {
		return MCEstimate{}, err
	}
	stopped := false
	if drawn < n {
		// Deadline watermark: keep the running estimate, widen ε to what
		// the drawn samples actually guarantee.
		n = drawn
		eps = achievedEps(n, o.Delta, width)
		if eps > width {
			eps = width
		}
		stopped = true
	}
	p := min(width*float64(hits)/float64(n), 1)
	return MCEstimate{P: p, Samples: n, Method: method.String(), Epsilon: eps, Delta: o.Delta,
		Capped: capped, Stopped: stopped}, nil
}

// tupleSeed derives the RNG seed of the i-th formula from the base seed via
// a splitmix64-style mix, decorrelating streams of consecutive indexes.
func tupleSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// estimateOne loads formula i of a batch into s — its generator seeded from
// (seed, i) alone — and estimates it.
func (s *sampler) estimateOne(ctx context.Context, d *DNF, a *Assignment, o MCOptions, i int) (MCEstimate, error) {
	s.load(d, a, uint64(tupleSeed(o.Seed, i)), uint64(o.Seed))
	return s.estimate(ctx, o)
}

// EstimateAllCtx estimates every formula of a batch — typically the
// per-answer lineage of one query — on a worker pool. Each formula gets its
// own generator seeded from (opts.Seed, index), so the result is a
// deterministic function of the input and options, independent of
// scheduling and worker count. The assignment is read concurrently and must
// not be mutated during the call. A cancelled context stops the samplers
// mid-run (they check every few thousand samples) and returns ctx.Err(); a
// nil one cannot cancel. The worker pool is opts.Pool when set — sharing
// the engine-wide slot budget — and a fresh pool of opts.Workers otherwise.
// Each worker draws a sampler from a sync.Pool, so lowering and sampling a
// formula allocate nothing once the worker's scratch has grown.
func EstimateAllCtx(ctx context.Context, dnfs []*DNF, a *Assignment, opts MCOptions) ([]MCEstimate, error) {
	o := opts.withDefaults()
	out := make([]MCEstimate, len(dnfs))
	if len(dnfs) == 0 {
		return out, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var samplers sync.Pool
	err := pool.Get(o.Pool, o.Workers).Do(ctx, len(dnfs), func(i int) (err error) {
		s, _ := samplers.Get().(*sampler)
		if s == nil {
			s = new(sampler)
		}
		defer samplers.Put(s)
		out[i], err = s.estimateOne(ctx, dnfs[i], a, o, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
