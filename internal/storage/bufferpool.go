package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// Frame is a buffer-pool slot holding one page of one file.
type Frame struct {
	page Page
	key  frameKey
	pins int
	lru  *list.Element
}

// Page returns the in-memory page held by the frame.
func (f *Frame) Page() *Page { return &f.page }

type frameKey struct {
	file   *HeapFile
	pageNo int64
}

// BufferPool caches heap-file pages with pin counting and LRU replacement.
// It is the read path of scans of files of up to a quarter of its capacity
// (a small table's pages stay cached across queries, the paper's warm-cache
// setup, §VII) and of single-page reads. A scan of a larger file reads
// extents through a scan-private ring instead (Scanner), bypassing the
// frames, so that it neither pays the pool's mutex per page nor evicts the
// small tables' pages; the pages it reads still count as misses.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	frames   map[frameKey]*Frame
	lru      *list.List // unpinned frames, front = least recently used
	hits     int64
	misses   int64
}

// NewBufferPool creates a pool with room for capacity pages.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		capacity: capacity,
		frames:   make(map[frameKey]*Frame, capacity),
		lru:      list.New(),
	}
}

// Fetch pins the requested page into the pool, reading it from disk on a
// miss (evicting the least recently used unpinned page when full).
func (bp *BufferPool) Fetch(h *HeapFile, pageNo int64) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	key := frameKey{h, pageNo}
	if fr, ok := bp.frames[key]; ok {
		bp.hits++
		if fr.lru != nil {
			bp.lru.Remove(fr.lru)
			fr.lru = nil
		}
		fr.pins++
		return fr, nil
	}
	bp.misses++
	var fr *Frame
	if len(bp.frames) >= bp.capacity {
		victim := bp.lru.Front()
		if victim == nil {
			return nil, fmt.Errorf("storage: buffer pool exhausted: all %d frames pinned", bp.capacity)
		}
		fr = victim.Value.(*Frame)
		bp.lru.Remove(victim)
		delete(bp.frames, fr.key)
		fr.lru = nil
	} else {
		fr = &Frame{}
	}
	if err := h.ReadPage(pageNo, &fr.page); err != nil {
		return nil, err
	}
	fr.key = key
	fr.pins = 1
	bp.frames[key] = fr
	return fr, nil
}

// Unpin releases a pin; at zero pins the frame becomes evictable.
func (bp *BufferPool) Unpin(fr *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr.pins <= 0 {
		panic("storage: unpin of unpinned frame")
	}
	fr.pins--
	if fr.pins == 0 {
		fr.lru = bp.lru.PushBack(fr)
	}
}

// ringPages is the largest file, in pages, whose scans go through the
// frames: a quarter of the capacity. A scan of a larger file would cycle
// the whole pool for pages it reads once (PostgreSQL's BAS_BULKREAD rule).
func (bp *BufferPool) ringPages() int64 { return int64(bp.capacity / 4) }

// countRead counts n pages a ring scan read from the file as misses.
func (bp *BufferPool) countRead(n int) {
	bp.mu.Lock()
	bp.misses += int64(n)
	bp.mu.Unlock()
}

// Stats returns the cumulative counters: hits are page fetches the frames
// served, misses the pages read from the file — by Fetch into a frame, or
// by a ring scan into its extent.
func (bp *BufferPool) Stats() (hits, misses int64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses
}

// Pinned counts frames currently held by at least one pin. Quiescent pools
// report zero; the chaos harness asserts this after every faulted query to
// prove no scan abandons a pinned page on any error path.
func (bp *BufferPool) Pinned() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, fr := range bp.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}
