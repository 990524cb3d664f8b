package freelist

import (
	"sync"
	"testing"
)

// empty takes every idle buffer off every list a test uses, so it starts
// from nothing.
func empty(ls ...*List[[]byte]) {
	var lease Lease
	for _, l := range ls {
		for {
			if _, ok := l.Largest(&lease); !ok {
				break
			}
		}
	}
}

// TestFitTakesTheBestFitUpToAClass: Draw takes a buffer that holds what
// was asked for, of the asked size's class or the one above — never a
// buffer two classes up, which another holder grew, nor one too small —
// and else makes a new one of the asked size; Largest takes the largest.
func TestFitTakesTheBestFitUpToAClass(t *testing.T) {
	l := Slices[byte]()
	var ls Lease
	for _, n := range []int{100, 1000, 5000, 1 << 20} {
		l.Put(&ls, make([]byte, 0, n))
	}
	if b := l.Draw(&ls, 200); cap(b) != 200 {
		t.Fatalf("Draw(200) = %d bytes; want a new 200-byte buffer, not the 1000-byte one two classes up or the 100-byte one, too small", cap(b))
	}
	if b := l.Draw(&ls, 800); cap(b) != 1000 {
		t.Fatalf("Draw(800) = %d bytes; want the 1000-byte buffer", cap(b))
	}
	if b := l.Draw(&ls, 3000); cap(b) != 5000 {
		t.Fatalf("Draw(3000) = %d bytes; want the 5000-byte buffer, a class up", cap(b))
	}
	if b, ok := l.Largest(&ls); !ok || cap(b) != 1<<20 {
		t.Fatalf("Largest = %d bytes, %v; want the 1 MiB buffer", cap(b), ok)
	}
	if b, ok := l.Largest(&ls); !ok || cap(b) != 100 {
		t.Fatalf("Largest = %d bytes, %v; want the last one left", cap(b), ok)
	}
	if _, ok := l.Largest(&ls); ok {
		t.Fatal("Largest took a buffer off an empty list")
	}
}

// TestIdleCapAndFreshBytes: the idle bytes never pass IdleCap — a buffer
// that would is dropped — and what a holder gives back beyond what it
// drew counts as fresh, once.
func TestIdleCapAndFreshBytes(t *testing.T) {
	l := Slices[byte]()
	defer func(c int64) { IdleCap = c }(IdleCap)
	mu.Lock()
	IdleCap = idle + 3000 // what other tests left idle, and room for 3000 bytes
	mu.Unlock()
	var a Lease
	before := Read()
	l.Put(&a, make([]byte, 0, 2000))
	l.Put(&a, make([]byte, 0, 2000)) // past the cap: dropped
	if got := Read().FreshBytes - before.FreshBytes; got != 4000 {
		t.Fatalf("giving back 4000 bytes grown anew counted %d fresh", got)
	}
	var b Lease
	got, ok := l.Largest(&b)
	if !ok || cap(got) != 2000 {
		t.Fatalf("drew %d bytes, %v; want the one buffer the cap admitted", cap(got), ok)
	}
	if _, ok := l.Largest(&b); ok {
		t.Fatal("the buffer past the cap was kept")
	}
	mid := Read()
	if mid.ReusedBytes-before.ReusedBytes != 2000 {
		t.Fatalf("drawing 2000 bytes counted %d reused", mid.ReusedBytes-before.ReusedBytes)
	}
	// Grown from 2000 to 2500: 500 fresh.
	l.Put(&b, make([]byte, 0, 2500))
	if got := Read().FreshBytes - mid.FreshBytes; got != 500 {
		t.Fatalf("giving back 2500 bytes after drawing 2000 counted %d fresh, want 500", got)
	}
	empty(l)
}

// TestPtrSlicesPinNothing: an idle slice of a pointer type is cleared up
// to its capacity, so it keeps nothing alive; a pointer-free one keeps its
// elements.
func TestPtrSlicesPinNothing(t *testing.T) {
	l := PtrSlices[*int]()
	var ls Lease
	x := 7
	s := make([]*int, 3, 8)
	s[0], s[2] = &x, &x
	l.Put(&ls, s)
	got, _ := l.Largest(&ls)
	if len(got) != 0 || cap(got) != 8 {
		t.Fatalf("drew len %d cap %d, want an empty slice of capacity 8", len(got), cap(got))
	}
	for i, p := range got[:cap(got)] {
		if p != nil {
			t.Fatalf("element %d of the idle slice still points at a value", i)
		}
	}
}

// TestConcurrentHolders: holders on several goroutines — the sorters of
// one partitioned pass — share the one list and one Lease (run under -race
// in CI); every buffer drawn is drawn by one holder at a time.
func TestConcurrentHolders(t *testing.T) {
	l := Slices[int64]()
	var shared Lease
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				s := l.Draw(&shared, 8*64)
				s = append(s[:0], int64(g), int64(i))
				if s[0] != int64(g) || s[1] != int64(i) {
					t.Errorf("holder %d saw another holder's write", g)
					return
				}
				l.Put(&shared, s)
			}
		}()
	}
	wg.Wait()
}
