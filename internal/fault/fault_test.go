package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPlanDeterministic: two plans built from the same seed make identical
// decisions over an identical op stream.
func TestPlanDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := RandomPlan(seed), RandomPlan(seed)
		for i := 0; i < 200; i++ {
			op := Op(i % int(numOps))
			path := fmt.Sprintf("file%d.heap", i%3)
			da := a.Decide(op, path, 4096)
			db := b.Decide(op, path, 4096)
			if (da.Err == nil) != (db.Err == nil) || da.Short != db.Short || da.Delay != db.Delay {
				t.Fatalf("seed %d op %d: decisions diverge: %+v vs %+v", seed, i, da, db)
			}
			if da.Err != nil && da.Err.Error() != db.Err.Error() {
				t.Fatalf("seed %d op %d: errors diverge", seed, i)
			}
		}
	}
}

// TestRuleNthAndCount: a rule fires exactly at its trigger point and at
// most Count times.
func TestRuleNthAndCount(t *testing.T) {
	p := NewPlan(1, Rule{Op: OpWrite, Nth: 3, Count: 2, Kind: KindENOSPC})
	var hits []int
	for i := 1; i <= 6; i++ {
		if d := p.Decide(OpWrite, "x", 128); d.Err != nil {
			hits = append(hits, i)
		}
	}
	if len(hits) != 2 || hits[0] != 3 || hits[1] != 4 {
		t.Fatalf("rule fired at %v, want [3 4]", hits)
	}
	if p.Injected() != 2 {
		t.Fatalf("Injected() = %d, want 2", p.Injected())
	}
}

// TestPathSubstrScoping: a path-scoped rule ignores other files.
func TestPathSubstrScoping(t *testing.T) {
	p := NewPlan(1, Rule{Op: OpRemove, PathSubstr: "run", Kind: KindErr})
	if d := p.Decide(OpRemove, "base.heap", 0); d.Err != nil {
		t.Fatal("rule must not fire on non-matching path")
	}
	if d := p.Decide(OpRemove, "spill-run3.heap", 0); d.Err == nil {
		t.Fatal("rule must fire on matching path")
	}
}

// TestInjectedTaxonomy: IsInjected and IsTransient see through wrapping.
func TestInjectedTaxonomy(t *testing.T) {
	base := &Injected{Op: OpRead, Kind: KindErr, Path: "x", Transient: true}
	wrapped := fmt.Errorf("scan: %w", base)
	if !IsInjected(wrapped) || !IsTransient(wrapped) {
		t.Fatal("wrapped transient injected fault not classified")
	}
	hard := fmt.Errorf("scan: %w", &Injected{Op: OpRead, Kind: KindENOSPC})
	if !IsInjected(hard) || IsTransient(hard) {
		t.Fatal("hard fault misclassified")
	}
	if IsInjected(errors.New("plain")) || IsTransient(nil) {
		t.Fatal("plain errors must not classify as injected")
	}
}

// TestShortWriteDeterministic: torn-page prefixes are a pure function of
// the seed and op ordinal, and always shorter than the payload.
func TestShortWriteDeterministic(t *testing.T) {
	mk := func() Decision {
		p := NewPlan(7, Rule{Op: OpWrite, Nth: 2, Kind: KindShortWrite})
		p.Decide(OpWrite, "x", 4096)
		return p.Decide(OpWrite, "x", 4096)
	}
	a, b := mk(), mk()
	if a.Err == nil || a.Short < 0 || a.Short >= 4096 {
		t.Fatalf("short write decision %+v out of range", a)
	}
	if a.Short != b.Short {
		t.Fatalf("torn prefix nondeterministic: %d vs %d", a.Short, b.Short)
	}
}

// TestRetryBackoff: capped exponential with deterministic jitter.
func TestRetryBackoff(t *testing.T) {
	r := Retry{MaxAttempts: 5, Base: time.Millisecond, Max: 8 * time.Millisecond}
	if !r.Enabled() {
		t.Fatal("policy with MaxAttempts=5 must be enabled")
	}
	if (Retry{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := r.Backoff(42, attempt)
		d2 := r.Backoff(42, attempt)
		if d != d2 {
			t.Fatalf("attempt %d: jitter nondeterministic (%v vs %v)", attempt, d, d2)
		}
		if d < 0 || d > 10*time.Millisecond { // 8ms cap + 25% jitter
			t.Fatalf("attempt %d: backoff %v out of bounds", attempt, d)
		}
		if attempt <= 4 && d <= prev/4 {
			t.Fatalf("attempt %d: backoff %v not growing from %v", attempt, d, prev)
		}
		prev = d
	}
}

// TestGovernorBasics: nil receiver is unlimited; reservations charge and
// release; denial trips Pressured.
func TestGovernorBasics(t *testing.T) {
	var nilG *Governor
	if !nilG.TryReserve(1 << 40) {
		t.Fatal("nil governor must admit everything")
	}
	nilG.Release(1 << 40)
	if nilG.Pressured() || nilG.Used() != 0 {
		t.Fatal("nil governor must be inert")
	}

	g := NewGovernor(100, nil)
	if !g.TryReserve(60) || !g.TryReserve(40) {
		t.Fatal("reservations within limit must succeed")
	}
	if g.TryReserve(1) {
		t.Fatal("reservation over limit must fail")
	}
	if !g.Pressured() || g.Denials() != 1 {
		t.Fatalf("denials = %d, want 1", g.Denials())
	}
	g.Release(40)
	if g.Used() != 60 || g.Remaining() != 40 {
		t.Fatalf("used=%d remaining=%d after release", g.Used(), g.Remaining())
	}
	if g.HighWater() != 100 {
		t.Fatalf("high water %d, want 100", g.HighWater())
	}
}

// TestGovernorHierarchy: a child reservation must clear the parent too,
// and a parent denial rolls the child charge back atomically.
func TestGovernorHierarchy(t *testing.T) {
	parent := NewGovernor(100, nil)
	a := NewGovernor(0, parent) // counting-only child
	b := NewGovernor(0, parent)
	if !a.TryReserve(70) {
		t.Fatal("child A within parent limit")
	}
	if b.TryReserve(50) {
		t.Fatal("child B must be denied by the shared parent")
	}
	if a.Used() != 70 || b.Used() != 0 || parent.Used() != 70 {
		t.Fatalf("rollback broken: a=%d b=%d parent=%d", a.Used(), b.Used(), parent.Used())
	}
	a.Release(70)
	if parent.Used() != 0 {
		t.Fatalf("parent not released: %d", parent.Used())
	}
}

// TestGovernorConcurrent: hammering one governor from many goroutines
// never exceeds the limit and balances to zero.
func TestGovernorConcurrent(t *testing.T) {
	g := NewGovernor(1000, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g.TryReserve(7) {
					if g.Used() > 1000 {
						panic("limit exceeded")
					}
					g.Release(7)
				}
			}
		}()
	}
	wg.Wait()
	if g.Used() != 0 {
		t.Fatalf("unbalanced: %d", g.Used())
	}
	if g.HighWater() > 1000 {
		t.Fatalf("high water %d exceeds limit", g.HighWater())
	}
}

// TestReservationMatchesStepArithmetic: a Reservation charges its governor
// what a holder that kept its own running charge did — it tops the charge
// up to the total in whole 64 KiB steps, leaves it alone on a total it
// already covers, leaves it unchanged on a denial, and gives all of it back
// on Release — through the same TryReserve sequence, so its grants and
// denials fall where theirs did. Against no governor it covers every total
// and holds nothing.
func TestReservationMatchesStepArithmetic(t *testing.T) {
	const step = 64 << 10
	totals := []int64{0, 1, step, step + 1, 3 * step, 100, 10 * step, 7*step + 5, 20 * step, 9 * step}
	g := NewGovernor(12*step, nil)
	r := NewReservation(g)
	var held int64 // the arithmetic a holder kept before Reservation
	var grants, denials int64
	for _, total := range totals {
		want := true
		if total > held {
			need := (total - held + step - 1) / step * step
			if want = held+need <= 12*step; want {
				held += need
				grants++
			} else {
				denials++
			}
		}
		if got := r.Cover(total); got != want {
			t.Fatalf("Cover(%d) = %v, want %v", total, got, want)
		}
		if r.Held() != held || g.Used() != held {
			t.Fatalf("after Cover(%d): held %d, governor used %d; want %d", total, r.Held(), g.Used(), held)
		}
	}
	if grants == 0 || denials == 0 || g.Denials() != denials {
		t.Fatalf("%d grants, %d denials (governor counted %d): the sequence must both grant and deny", grants, denials, g.Denials())
	}
	r.Release()
	r.Release()
	if r.Held() != 0 || g.Used() != 0 {
		t.Fatalf("after Release: held %d, governor used %d", r.Held(), g.Used())
	}

	free := NewReservation(nil)
	if free.Governed() || !free.Cover(1<<40) || free.Held() != 0 {
		t.Fatalf("an ungoverned reservation charged %d bytes", free.Held())
	}
	free.Release()
}

// TestReservationConcurrent: holders on several goroutines, each with a
// reservation of its own against one governor — the sorters of one
// partitioned pass — never take it past its limit and balance it to zero.
func TestReservationConcurrent(t *testing.T) {
	const limit = 8 * ReservationStep
	g := NewGovernor(limit, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewReservation(g)
			for i := int64(1); i <= 500; i++ {
				if r.Cover(i * 1000) {
					if g.Used() > limit {
						panic("limit exceeded")
					}
				} else {
					r.Release()
				}
			}
			r.Release()
		}()
	}
	wg.Wait()
	if g.Used() != 0 || g.HighWater() > limit {
		t.Fatalf("used %d, high water %d, limit %d", g.Used(), g.HighWater(), limit)
	}
}

// TestPanicError: typed panic classification.
func TestPanicError(t *testing.T) {
	pe := &PanicError{Value: "boom", Stack: []byte("stack")}
	wrapped := fmt.Errorf("query: %w", pe)
	got, ok := IsPanic(wrapped)
	if !ok || got.Value != "boom" {
		t.Fatalf("IsPanic(%v) = %v, %v", wrapped, got, ok)
	}
	if _, ok := IsPanic(errors.New("no")); ok {
		t.Fatal("plain error classified as panic")
	}
}
