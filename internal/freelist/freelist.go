// Package freelist is the engine's one free list of operator workspace:
// the buffers a key sort, a hash-join build or lineage collection grows,
// the batches operators pull their inputs through, and the chunks a
// sort+scan pass outputs (owned by their run's table.Scope) outlive the
// operator or the run, and the next operator — of the same query or a
// later one — draws them instead of regrowing its own from nothing
// (Graefe, "Implementing sorting in database systems", ACM CSUR 2006:
// sort workspace is memory the engine manages, not the allocator).
//
// Buffers are kept by shape: one List per element type (the column vectors
// of each column kind, the byte arenas, the int32 chains, the sorter's
// entries, ...), all behind one mutex and one idle-byte cap (IdleCap), so
// no user can hoard what another needs. Within a list the buffers sit per
// power-of-two size class; the concurrent holders of one partitioned pass
// draw from and give back to the same list.
//
// One rule draws: a holder that knows how much it needs (a BatchSize chunk
// vector, a hash index of n rows) calls Draw, which hands over the list's
// best fit or else a new buffer of the size asked for, so what goes back
// is a buffer the next such draw takes; one that does not know (a sort
// run, a collector table) takes the largest idle buffer (Largest) and
// grows it. One path returns: every drawn buffer goes back with Put,
// exactly once, when its holder is done with it, whether or not the run
// was governed; what the cap does not admit is left to the collector. The
// one holder that bypasses the list is a governed sort run (storage's
// sortBufs), whose governor charge counts its buffers' capacity.
//
// A Lease is one holder's tally of the bytes it drew, so that the bytes it
// gives back beyond them count as grown fresh: Read reports how much
// capacity draws reused, how much holders grew anew, and the most bytes the
// list has held idle, since the process started.
package freelist

import (
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// IdleCap bounds the bytes the free list holds idle: 32 MiB per processor
// (GOMAXPROCS read at start-up). That is one full key-sort run a processor
// — 64 Ki rows of 256 bytes, how many sorts fill at once when the
// confidence operator's partitioned scan runs one per worker of a
// GOMAXPROCS-sized pool, all giving back to the same lists — and as much
// again for what runs beside the sorts: a query's hash-join builds and its
// lineage collection, so that a query's sort workspace and its builds are
// both kept.
var IdleCap = int64(runtime.GOMAXPROCS(0)) * 32 << 20

var (
	mu    sync.Mutex // guards every List, idle and stats
	idle  int64      // bytes held idle now
	stats Stats
)

// Stats are the free list's recycling figures since the process started.
type Stats struct {
	ReusedBytes   int64 // buffer capacity holders drew from the free list
	FreshBytes    int64 // capacity they gave back beyond what they drew: grown anew
	IdlePeakBytes int64 // most bytes the free list has held idle
}

// Read returns the recycling figures so far.
func Read() Stats {
	mu.Lock()
	defer mu.Unlock()
	return stats
}

// A Lease tallies the bytes one holder drew. Give back what was drawn
// under the same Lease: what comes back beyond the tally counts as fresh.
// The lists touch a Lease only under their lock, so the holders of one
// partitioned pass may share one across goroutines.
type Lease struct{ drawn int64 }

// classes is the number of size classes: class c holds buffers of
// [2^(c-1), 2^c) bytes.
const classes = 64

func class(n int64) int { return bits.Len64(uint64(n)) }

// List is the idle buffers of one shape.
type List[T any] struct {
	size  func(T) int64      // bytes of storage x holds
	clear func(*T)           // empties x for its next holder, pinning nothing
	alloc func(want int64) T // a new empty buffer of want bytes; nil: the zero T
	idle  [classes][]T       // the idle buffers by size class
}

// New returns an empty list of buffers whose storage size measures and
// clear empties — clear must leave nothing reachable through the buffer
// but its own storage — and that alloc, when not nil, makes anew for a
// Draw the list cannot serve; without it such a Draw returns the zero T,
// which its holder sizes itself.
func New[T any](size func(T) int64, clear func(*T), alloc func(want int64) T) *List[T] {
	return &List[T]{size: size, clear: clear, alloc: alloc}
}

// Slices returns a list of slices of a pointer-free element type, sized
// by capacity. An idle slice has length 0; its old elements are not
// cleared, so a holder that needs zeros clears what it uses.
func Slices[E any]() *List[[]E] {
	return New(sliceSize[E], func(s *[]E) { *s = (*s)[:0] }, makeSlice[E])
}

// PtrSlices is Slices for an element type holding pointers: an idle slice
// is cleared up to its capacity, so that it keeps nothing alive.
func PtrSlices[E any]() *List[[]E] {
	return New(sliceSize[E], func(s *[]E) {
		clear((*s)[:cap(*s)])
		*s = (*s)[:0]
	}, makeSlice[E])
}

func sliceSize[E any](s []E) int64 { return int64(unsafe.Sizeof(*new(E))) * int64(cap(s)) }

// makeSlice is a new empty slice of room for want bytes of elements.
func makeSlice[E any](want int64) []E {
	w := int64(unsafe.Sizeof(*new(E)))
	return make([]E, 0, (want+w-1)/w)
}

// The lists of plain slices, which any user may draw from.
var (
	Bytes    = Slices[byte]()
	Int32s   = Slices[int32]()
	Uint32s  = Slices[uint32]()
	Uint64s  = Slices[uint64]()
	Float64s = Slices[float64]()
)

// Largest takes the largest idle buffer, for a holder that does not know
// how far it will grow; false when the list is empty.
func (l *List[T]) Largest(ls *Lease) (T, bool) {
	mu.Lock()
	defer mu.Unlock()
	for c := classes - 1; c > 0; c-- {
		if len(l.idle[c]) > 0 {
			return l.take(ls, &l.idle[c], l.largestIn(l.idle[c])), true
		}
	}
	var zero T
	return zero, false
}

// Draw is the draw of a holder that knows it needs want bytes: the best fit
// off the list (fit), else a new buffer of want bytes — so that what goes
// back is a buffer the next such draw takes.
func (l *List[T]) Draw(ls *Lease, want int64) T {
	if x, ok := l.fit(ls, want); ok {
		return x
	}
	var zero T
	if l.alloc == nil {
		return zero
	}
	return l.alloc(want)
}

// fit takes an idle buffer of at least want bytes but of at most the size
// class above want's — the best fit up to a size class, so that a holder
// that knows its size never takes the large buffer another holder grew:
// the most recently given back one of want's class that holds want, else
// one of the class above; false when there is none.
func (l *List[T]) fit(ls *Lease, want int64) (T, bool) {
	mu.Lock()
	defer mu.Unlock()
	c := class(want)
	for i := len(l.idle[c]) - 1; i >= 0; i-- {
		if l.size(l.idle[c][i]) >= want {
			return l.take(ls, &l.idle[c], i), true
		}
	}
	if c+1 < classes && len(l.idle[c+1]) > 0 {
		return l.take(ls, &l.idle[c+1], len(l.idle[c+1])-1), true
	}
	var zero T
	return zero, false
}

// Put gives x back once its holder is done with it, as far as the idle cap
// admits it; a buffer of no storage is dropped.
func (l *List[T]) Put(ls *Lease, x T) {
	n := l.size(x)
	if n == 0 {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	credit := min(n, ls.drawn)
	ls.drawn -= credit
	stats.FreshBytes += n - credit
	if idle+n > IdleCap {
		return
	}
	idle += n
	stats.IdlePeakBytes = max(stats.IdlePeakBytes, idle)
	cl := &l.idle[class(n)]
	*cl = append(*cl, x)
	l.clear(&(*cl)[len(*cl)-1])
}

// largestIn is the index of the largest buffer of a class, -1 when empty.
func (l *List[T]) largestIn(cl []T) int {
	at, most := -1, int64(-1)
	for i := range cl {
		if n := l.size(cl[i]); n > most {
			at, most = i, n
		}
	}
	return at
}

// take removes element i of list and hands it to ls's holder.
func (l *List[T]) take(ls *Lease, list *[]T, i int) T {
	cl := *list
	last := len(cl) - 1
	x := cl[i]
	var zero T
	cl[i], cl[last] = cl[last], zero
	*list = cl[:last]
	n := l.size(x)
	idle -= n
	ls.drawn += n
	stats.ReusedBytes += n
	return x
}
