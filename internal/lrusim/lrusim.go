// Package lrusim implements single-pass LRU buffer-pool simulation over page
// reference traces using the stack property of LRU (Mattson et al., 1970),
// exactly as Subprogram LRU-Fit in the paper prescribes:
//
//	"the stack property of the LRU algorithm is used to do the simulation
//	 using a [single stack]. A sequential scan of the buffer pool is avoided
//	 by using hash tables of buffer pages."
//
// One pass over the trace yields the page-fetch count F(B) for EVERY buffer
// size B simultaneously: each reference's LRU stack distance d is recorded in
// a histogram; a reference is a hit in a pool of size B if and only if d <= B,
// so F(B) = cold misses + #\{references with d > B\}.
//
// There is one stack-distance engine, Accum: a Fenwick tree over reference
// positions, where the stack distance of a reuse is one plus the number of
// distinct pages referenced since the page's previous reference, a prefix-sum
// query. It consumes a trace in batches and merges with other accumulators;
// Analyze runs it once over a whole trace on a pooled Accum.
//
// Windows records the same pass. A reference whose previous reference to its
// page lies inside a window [lo, hi) of the trace has the same stack distance
// in the window as in the whole trace, and every other reference in the
// window is a cold miss there. So one pass over the whole trace yields the
// exact fetch curve of every window by a linear filter. This is how the
// evaluation's partial scans are measured.
//
// DirectFetches (one LRU pool of one size) and ClockFetches (the clock
// policy, which has no stack property) simulate a pool directly. Property
// tests in this package check Accum against a move-to-front list oracle and
// DirectFetches, the window curves against a separate pass over each sliced
// trace, and the curves against the real LRU buffer pool in internal/buffer.
package lrusim

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"epfis/internal/storage"
)

// Trace is a sequence of data-page references, in the order an index scan
// touches them (one entry per index entry, i.e. per record fetched).
type Trace []storage.PageID

// Clone returns an independent copy of the trace.
func (t Trace) Clone() Trace {
	return append(Trace(nil), t...)
}

// DistinctPages reports the number of distinct pages in the trace — the
// paper's A, the number of pages accessed by the scan.
func (t Trace) DistinctPages() int {
	seen := make(map[storage.PageID]struct{}, 256)
	for _, p := range t {
		seen[p] = struct{}{}
	}
	return len(seen)
}

// Histogram is the stack-distance histogram of a trace. Distances are
// 1-based: a reference at distance d hits in any LRU pool with >= d frames.
// Cold (first-ever) references have infinite distance and are counted
// separately.
type Histogram struct {
	// Counts[d] is the number of references with stack distance d;
	// Counts[0] is unused and always zero.
	Counts []int64
	// Cold is the number of first references (compulsory misses). It equals
	// the number of distinct pages accessed (the paper's A).
	Cold int64
	// Total is the number of references in the trace (for a full index scan,
	// the paper's N).
	Total int64
}

// FetchCurve converts the histogram into a constant-time F(B) lookup.
func (h *Histogram) FetchCurve() *FetchCurve {
	cum := make([]int64, len(h.Counts))
	var run int64
	for d := 1; d < len(h.Counts); d++ {
		run += h.Counts[d]
		cum[d] = run
	}
	return &FetchCurve{cumHits: cum, cold: h.Cold, total: h.Total}
}

// FetchCurve answers "how many page fetches would an LRU pool of B frames
// perform on this trace" for any B, in O(1) after the one-time pass.
// This is the paper's FPF (full-index-scan page fetch) function when the
// trace covers the whole index.
type FetchCurve struct {
	cumHits []int64 // cumHits[d] = hits in a pool of size d
	cold    int64
	total   int64
}

// Fetches returns F(B), the number of page fetches with an LRU pool of
// bufferSize frames. bufferSize < 1 is treated as 1 — a scan always has at
// least the frame it is reading into (and F(0) is undefined for LRU).
func (c *FetchCurve) Fetches(bufferSize int) int64 {
	if bufferSize < 1 {
		bufferSize = 1
	}
	if bufferSize >= len(c.cumHits) {
		if len(c.cumHits) == 0 {
			return c.cold
		}
		return c.total - c.cumHits[len(c.cumHits)-1]
	}
	return c.total - c.cumHits[bufferSize]
}

// Accesses reports the paper's A: the number of distinct pages accessed.
// Every fetch count satisfies A <= F(B) <= Total.
func (c *FetchCurve) Accesses() int64 { return c.cold }

// Total reports the number of references in the trace.
func (c *FetchCurve) Total() int64 { return c.total }

// MinBufferForFullCaching returns the smallest buffer size at which the scan
// incurs only compulsory misses (F(B) == A).
func (c *FetchCurve) MinBufferForFullCaching() int {
	// F is non-increasing in B; binary search the first B with F(B) == cold.
	lo, hi := 1, len(c.cumHits)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Fetches(mid) == c.cold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// accumPool backs Analyze and NewWindows, so one-shot callers reuse an
// accumulator's structures without holding one of their own.
var accumPool = sync.Pool{New: func() any { return NewAccum() }}

// Analyze computes the trace's fetch curve in one stack pass on a pooled
// Accum. Only the returned curve is allocated; it is safe for concurrent use.
func Analyze(t Trace) *FetchCurve {
	a := accumPool.Get().(*Accum)
	a.Reset()
	a.Feed(t)
	c := a.Curve()
	accumPool.Put(a)
	return c
}

// DirectFetches simulates a single LRU pool of the given size over the trace
// (no stack trick) and returns the fetch count. It exists as an independent
// oracle for tests and for one-off measurements.
func DirectFetches(t Trace, bufferSize int) (int64, error) {
	if bufferSize < 1 {
		return 0, fmt.Errorf("lrusim: buffer size must be >= 1, got %d", bufferSize)
	}
	type node struct {
		page       storage.PageID
		prev, next *node
	}
	index := make(map[storage.PageID]*node, bufferSize)
	var head, tail *node
	var fetches int64
	unlink := func(n *node) {
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			head = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		} else {
			tail = n.prev
		}
		n.prev, n.next = nil, nil
	}
	pushFront := func(n *node) {
		n.next = head
		if head != nil {
			head.prev = n
		}
		head = n
		if tail == nil {
			tail = n
		}
	}
	for _, pg := range t {
		if n, ok := index[pg]; ok {
			if head != n {
				unlink(n)
				pushFront(n)
			}
			continue
		}
		fetches++
		if len(index) >= bufferSize {
			victim := tail
			unlink(victim)
			delete(index, victim.page)
		}
		n := &node{page: pg}
		index[pg] = n
		pushFront(n)
	}
	return fetches, nil
}

// ErrEmptyTrace reports an operation that needs a non-empty trace.
var ErrEmptyTrace = errors.New("lrusim: empty trace")

// SampleCurve evaluates the fetch curve at each buffer size in sizes and
// returns (B, F(B)) pairs sorted by B. Duplicate sizes are collapsed.
func SampleCurve(c *FetchCurve, sizes []int) []Point {
	uniq := make(map[int]struct{}, len(sizes))
	out := make([]Point, 0, len(sizes))
	for _, b := range sizes {
		if b < 1 {
			b = 1
		}
		if _, dup := uniq[b]; dup {
			continue
		}
		uniq[b] = struct{}{}
		out = append(out, Point{B: b, F: c.Fetches(b)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].B < out[j].B })
	return out
}

// Point is one sampled point of an FPF curve.
type Point struct {
	B int   // buffer size in pages
	F int64 // page fetches at that size
}

// ClockFetches simulates a clock (second-chance) buffer pool of the given
// size over the trace and returns the fetch count. Clock has no stack
// property, so unlike LRU there is no one-pass-all-sizes trick; this direct
// simulator supports the policy-sensitivity study (how well EPFIS's
// LRU-derived model predicts a clock-managed pool, the common LRU
// approximation in real systems).
func ClockFetches(t Trace, bufferSize int) (int64, error) {
	if bufferSize < 1 {
		return 0, fmt.Errorf("lrusim: buffer size must be >= 1, got %d", bufferSize)
	}
	type frame struct {
		page     storage.PageID
		ref      bool
		occupied bool
	}
	frames := make([]frame, bufferSize)
	index := make(map[storage.PageID]int, bufferSize)
	hand := 0
	var fetches int64
	for _, pg := range t {
		if i, ok := index[pg]; ok {
			frames[i].ref = true
			continue
		}
		fetches++
		for {
			f := &frames[hand]
			i := hand
			hand = (hand + 1) % bufferSize
			if !f.occupied {
				frames[i] = frame{page: pg, ref: true, occupied: true}
				index[pg] = i
				break
			}
			if !f.ref {
				delete(index, f.page)
				frames[i] = frame{page: pg, ref: true, occupied: true}
				index[pg] = i
				break
			}
			f.ref = false
		}
	}
	return fetches, nil
}
