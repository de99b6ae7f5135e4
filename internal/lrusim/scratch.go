package lrusim

import (
	"sync"

	"epfis/internal/storage"
)

// Scratch is a reusable Mattson stack simulator. It produces exactly the
// histograms and fetch curves of TreeSimulator, but keeps every working
// structure — the Fenwick array, the per-page last-position table, the
// page-id remap, and the stack-distance counts — between runs, so repeated
// analyses (the calibration bisection, the modeling pass per figure, the
// whole-trace pass behind each Windows index) allocate only the result they
// return instead of three large structures per trace.
//
// Two further optimizations over TreeSimulator:
//
//   - Page ids are remapped to dense small ints on first sight, so the
//     last-position table is a flat slice indexed by dense id rather than a
//     hash map. When the raw ids are already compact (every trace produced
//     by datagen numbers pages 0..T-1) the remap itself is a flat slice with
//     epoch stamps — O(1) reset, no hashing at all; sparse ids fall back to
//     one reused map.
//   - The histogram is accumulated in a reused buffer and converted straight
//     into the cumulative FetchCurve form, skipping the intermediate
//     Histogram allocation on the Curve path.
//
// A Scratch is not safe for concurrent use; give each goroutine its own, or
// go through Analyze or NewWindows, which draw from an internal pool.
type Scratch struct {
	fen     []int32 // Fenwick tree over trace positions, 1-based
	lastPos []int32 // dense page id -> position of its most recent reference
	counts  []int64 // counts[d] = references at stack distance d
	maxDist int     // high-water mark of counts actually touched

	// Dense remap, slice path: denseOf[raw] is valid iff stamp[raw] == epoch.
	denseOf []int32
	stamp   []uint32
	epoch   uint32

	// Dense remap, map path (raw ids too sparse for the slice).
	remap map[storage.PageID]int32
}

// NewScratch returns an empty reusable simulator.
func NewScratch() *Scratch { return &Scratch{} }

// maxSliceRemapFactor bounds the slice remap: raw ids are kept in a flat
// table only while maxID < factor*len(trace) + slack, so a short trace with
// one huge page id cannot force a giant allocation.
const (
	maxSliceRemapFactor = 4
	maxSliceRemapSlack  = 1024
)

// Run implements Simulator: it consumes the trace and returns a fresh
// Histogram (the counts are copied out of the scratch buffer, so the result
// outlives any further reuse).
func (s *Scratch) Run(t Trace) *Histogram {
	cold := s.pass(t, nil)
	h := &Histogram{Total: int64(len(t)), Cold: cold}
	h.Counts = make([]int64, s.maxDist+1)
	copy(h.Counts, s.counts[:s.maxDist+1])
	return h
}

// Analyze consumes the trace and returns its fetch curve. This is the
// allocation-lean path: the only allocations are the returned FetchCurve and
// its cumulative array (both must escape; everything else is reused).
func (s *Scratch) Analyze(t Trace) *FetchCurve {
	cold := s.pass(t, nil)
	cum := make([]int64, s.maxDist+1)
	var run int64
	for d := 1; d <= s.maxDist; d++ {
		run += s.counts[d]
		cum[d] = run
	}
	return &FetchCurve{cumHits: cum, cold: cold, total: int64(len(t))}
}

// pass runs the one-pass stack simulation, leaving the per-distance counts
// in s.counts[1..s.maxDist] and returning the cold-miss count. When rec is
// non-nil (len(rec) == len(t)) it also records every reference's previous
// position and stack distance there, the input of Windows.
//
// The Fenwick tree is kept so that, for every page x seen, the prefix sum up
// to lastPos[x] counts the pages whose latest reference is at or before x's.
// A reuse of a page last seen at prev then follows live - prefix(prev)
// latest references of other pages, and its distance is that count + 1: one
// prefix query. A reuse of the page just referenced (prev == i-1) has
// distance 1 and leaves the tree alone. Its +1 stays at the start of the run
// of repeats and a later move subtracts 1 at the run's end, so only prefixes
// ending inside the run read wrong, and no page's lastPos is there again.
func (s *Scratch) pass(t Trace, rec []reuse) int64 {
	n := len(t)
	s.reset(n, t)

	var cold int64
	live := int32(0) // distinct pages so far; also the next dense id
	for i, pg := range t {
		id, seen := s.denseID(pg, live)
		if !seen {
			live++
			cold++
			s.lastPos[id] = int32(i)
			s.fenAdd(i+1, 1)
			if rec != nil {
				rec[i] = reuse{prev: -1}
			}
			continue
		}
		prev := int(s.lastPos[id])
		s.lastPos[id] = int32(i)
		d := 1
		if prev != i-1 {
			d = int(live) - s.fenPrefix(prev+1) + 1
			s.fenAdd(prev+1, -1)
			s.fenAdd(i+1, 1)
		}
		if d > s.maxDist {
			s.maxDist = d
		}
		s.counts[d]++
		if rec != nil {
			rec[i] = reuse{prev: int32(prev), dist: int32(d)}
		}
	}
	return cold
}

// reset prepares the scratch structures for a trace of length n, growing and
// clearing only what the previous run actually touched.
func (s *Scratch) reset(n int, t Trace) {
	// Fenwick array: positions 1..n (index 0 unused).
	if cap(s.fen) < n+1 {
		s.fen = make([]int32, n+1)
	} else {
		s.fen = s.fen[:n+1]
		for i := range s.fen {
			s.fen[i] = 0
		}
	}
	// Last-position table: at most n distinct pages.
	if cap(s.lastPos) < n {
		s.lastPos = make([]int32, n)
	} else {
		s.lastPos = s.lastPos[:n]
	}
	// Distance counts: zero only the prefix the previous run used.
	if cap(s.counts) < n+1 {
		grown := make([]int64, n+1)
		s.counts = grown
	} else {
		for d := 1; d <= s.maxDist; d++ {
			s.counts[d] = 0
		}
		s.counts = s.counts[:n+1]
	}
	s.maxDist = 0

	// Choose the remap representation from the trace's id range.
	maxID := storage.PageID(0)
	for _, pg := range t {
		if pg > maxID {
			maxID = pg
		}
	}
	if int64(maxID) < int64(maxSliceRemapFactor)*int64(n)+maxSliceRemapSlack {
		s.remap = nil
		need := int(maxID) + 1
		if cap(s.denseOf) < need {
			s.denseOf = make([]int32, need)
			s.stamp = make([]uint32, need)
			s.epoch = 1
		} else {
			s.denseOf = s.denseOf[:need]
			s.stamp = s.stamp[:need]
			s.epoch++
			if s.epoch == 0 { // wrapped: stamps may alias, hard reset
				for i := range s.stamp {
					s.stamp[i] = 0
				}
				s.epoch = 1
			}
		}
	} else {
		if s.remap == nil {
			s.remap = make(map[storage.PageID]int32, 1024)
		} else {
			clear(s.remap)
		}
	}
}

// denseID maps a raw page id to its dense id, assigning next on first sight.
func (s *Scratch) denseID(pg storage.PageID, next int32) (id int32, seen bool) {
	if s.remap == nil {
		if s.stamp[pg] == s.epoch {
			return s.denseOf[pg], true
		}
		s.stamp[pg] = s.epoch
		s.denseOf[pg] = next
		return next, false
	}
	if id, ok := s.remap[pg]; ok {
		return id, true
	}
	s.remap[pg] = next
	return next, false
}

func (s *Scratch) fenAdd(i int, delta int32) {
	for ; i < len(s.fen); i += i & (-i) {
		s.fen[i] += delta
	}
}

// fenPrefix sums positions 1..i, 1-based.
func (s *Scratch) fenPrefix(i int) int {
	sum := 0
	for ; i > 0; i -= i & (-i) {
		sum += int(s.fen[i])
	}
	return sum
}

// scratchPool backs the package-level Analyze and NewWindows so their
// callers get the pooled path without holding a Scratch of their own.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// AnalyzePooled computes the trace's fetch curve using a pooled Scratch.
func AnalyzePooled(t Trace) *FetchCurve {
	s := scratchPool.Get().(*Scratch)
	c := s.Analyze(t)
	scratchPool.Put(s)
	return c
}
