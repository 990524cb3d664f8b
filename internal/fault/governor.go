package fault

import "sync/atomic"

// Governor is a hierarchical memory-budget accountant. The big allocators
// (sort buffers, hash-join build sides, compiler arenas, sampler buffers)
// reserve bytes before growing and release them when done; on denial they
// degrade — spill earlier, switch join strategy, shrink node budgets,
// draw fewer samples — instead of OOMing.
//
// A nil *Governor is a valid unlimited governor: every method is a
// nil-receiver fast path, so ungoverned queries pay one nil check per
// charge and nothing else. Per-query governors chain to a per-engine
// parent; a reservation must clear every level or it fails atomically.
type Governor struct {
	limit  int64
	parent *Governor

	used    atomic.Int64
	high    atomic.Int64
	denials atomic.Int64
}

// NewGovernor builds a governor admitting at most limit bytes, optionally
// chained to a parent (engine-wide) governor. limit <= 0 means unlimited
// at this level (useful for a counting-only child of a limited parent).
func NewGovernor(limit int64, parent *Governor) *Governor {
	return &Governor{limit: limit, parent: parent}
}

// TryReserve admits n bytes at this level and every ancestor, atomically:
// either all levels are charged or none. Returns false on denial.
func (g *Governor) TryReserve(n int64) bool {
	if g == nil || n <= 0 {
		return true
	}
	for {
		u := g.used.Load()
		if g.limit > 0 && u+n > g.limit {
			g.denials.Add(1)
			return false
		}
		if g.used.CompareAndSwap(u, u+n) {
			break
		}
	}
	if !g.parent.TryReserve(n) {
		g.used.Add(-n)
		g.denials.Add(1)
		return false
	}
	for {
		h := g.high.Load()
		u := g.used.Load()
		if u <= h || g.high.CompareAndSwap(h, u) {
			return true
		}
	}
}

// Release returns n bytes at this level and every ancestor.
func (g *Governor) Release(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.used.Add(-n)
	g.parent.Release(n)
}

// Used reports the bytes currently reserved at this level.
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// HighWater reports the peak reservation seen at this level.
func (g *Governor) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// Limit reports the byte limit at this level (0 = unlimited).
func (g *Governor) Limit() int64 {
	if g == nil {
		return 0
	}
	return g.limit
}

// Denials reports how many reservations this level has refused (including
// refusals on behalf of an ancestor).
func (g *Governor) Denials() int64 {
	if g == nil {
		return 0
	}
	return g.denials.Load()
}

// Pressured reports whether any reservation has been denied — the signal
// the planner folds into Stats.Degraded.
func (g *Governor) Pressured() bool { return g.Denials() > 0 }

// Remaining reports the headroom at this level alone (unlimited levels
// report the most restrictive ancestor's headroom, or MaxInt64).
func (g *Governor) Remaining() int64 {
	if g == nil {
		return int64(^uint64(0) >> 1)
	}
	rem := int64(^uint64(0) >> 1)
	if g.limit > 0 {
		rem = g.limit - g.used.Load()
		if rem < 0 {
			rem = 0
		}
	}
	if p := g.parent.Remaining(); p < rem {
		rem = p
	}
	return rem
}

// ReservationStep is the granularity of a Reservation, so the atomic
// traffic stays off the per-row path.
const ReservationStep = 64 << 10

// A Reservation is one holder's charge against a governor — a sorter's
// buffers, a hash-join build side: Cover raises it to cover a running
// total, in ReservationStep steps, and Release gives all of it back. Against
// a nil governor it covers every total and charges nothing.
type Reservation struct {
	gov  *Governor
	held int64 // bytes charged to gov
}

// NewReservation starts an empty reservation against g (nil: ungoverned).
func NewReservation(g *Governor) Reservation { return Reservation{gov: g} }

// Governed reports whether the reservation charges a governor.
func (r *Reservation) Governed() bool { return r.gov != nil }

// Held reports the bytes charged now.
func (r *Reservation) Held() int64 { return r.held }

// Cover raises the charge to cover total bytes, rounding what it adds up to
// whole steps; false, with the charge unchanged, when the governor denies
// it.
func (r *Reservation) Cover(total int64) bool {
	if r.gov == nil || total <= r.held {
		return true
	}
	need := (total - r.held + ReservationStep - 1) / ReservationStep * ReservationStep
	if !r.gov.TryReserve(need) {
		return false
	}
	r.held += need
	return true
}

// Release gives the whole charge back; a second Release gives back nothing.
func (r *Reservation) Release() {
	r.gov.Release(r.held)
	r.held = 0
}
