package lrusim

import (
	"fmt"
	"math"

	"epfis/internal/storage"
)

// Accum is the package's Mattson stack pass: an incremental, mergeable
// simulator that consumes a trace in batches — Feed may be called any number
// of times — carrying the Fenwick marker tree, the per-page last-position
// table, and the stack-distance counts across calls, so the fetch curve (and
// everything derived from it: FPF samples, the clustering factor) can be read
// at any point with Curve() without replaying history. Analyze and NewWindows
// run the same pass on pooled Accums.
//
// Two Accums can also be combined: a.Merge(b) produces in a the exact state
// of an accumulator that consumed a's stream followed by b's stream. Feed and
// Merge are both bit-identical to the move-to-front list oracle over the
// concatenated trace (property-tested in accum_test.go), so per-shard
// accumulators — one per ingest worker, one per node, or one per chunk of
// Analyze's split pass — roll up into the same curve a single serial pass
// would have produced.
//
// Memory grows with the stream: the Fenwick tree is indexed by reference
// position (one int32 per reference) and the last-position table by distinct
// page. Exact stack-distance accounting needs both — there is no sublinear
// exact form — so long-running pipelines bound an Accum's life (the ingest
// pipeline rotates accumulators past a reference cap) rather than feeding one
// forever. Positions are int32: a single Accum (or merge result) is capped at
// MaxAccumRefs references and Feed/Merge panic beyond it, the same way a
// slice append panics past its address space.
//
// The steady-state Feed path performs zero allocations; growth of the carried
// structures is amortized doubling, so measured allocs/op over any realistic
// batch sequence is ≤ 2 (gated by cmd/epfis-bench -suite ingest).
//
// An Accum is not safe for concurrent use.
type Accum struct {
	fen []int32 // Fenwick over stream positions, 1-based; len = n+1 once fed
	n   int     // references consumed so far

	cold    int64   // first-ever references (== number of distinct pages)
	counts  []int64 // counts[d] = references at stack distance d
	maxDist int     // high-water mark of counts actually touched

	lastPos []int32          // dense page id -> most recent position (0-based)
	pages   []storage.PageID // dense page id -> raw id, in first-sight order

	// Raw-id remap: slice path while ids stay dense, map fallback once a raw
	// id outgrows maxSliceRemapFactor*refs + slack. denseOf stores dense+1
	// so the zero value means "unseen"; Reset returns to the slice path.
	denseOf []int32
	remap   map[storage.PageID]int32
}

// maxSliceRemapFactor bounds the slice remap: raw ids are kept in a flat
// table only while id < factor*refs + slack, where refs is the stream length
// at the end of the batch being consumed, so a short stream with one huge
// page id cannot force a giant allocation.
const (
	maxSliceRemapFactor = 4
	maxSliceRemapSlack  = 1024
)

// MaxAccumRefs is the reference-count capacity of one Accum: positions are
// int32, so a stream (or merge result) longer than this cannot be represented.
const MaxAccumRefs = math.MaxInt32 - 1

// NewAccum returns an empty accumulator.
func NewAccum() *Accum { return &Accum{} }

// Total reports the number of references consumed so far.
func (a *Accum) Total() int64 { return int64(a.n) }

// Distinct reports the number of distinct pages seen so far — the cold-miss
// count, the paper's A for the accumulated stream.
func (a *Accum) Distinct() int64 { return a.cold }

// MaxPageID reports the largest raw page id seen, or 0 on an empty Accum.
// Callers deriving table metadata from a stream use it as a lower bound on T.
func (a *Accum) MaxPageID() storage.PageID {
	var max storage.PageID
	for _, pg := range a.pages {
		if pg > max {
			max = pg
		}
	}
	return max
}

// Reset returns the accumulator to the empty state and to the slice remap,
// retaining capacity so a rotated accumulator re-fills without reallocating.
func (a *Accum) Reset() {
	a.fen = a.fen[:0]
	a.n = 0
	a.cold = 0
	for d := 1; d <= a.maxDist; d++ {
		a.counts[d] = 0
	}
	a.maxDist = 0
	a.lastPos = a.lastPos[:0]
	a.pages = a.pages[:0]
	clear(a.denseOf)
	a.remap = nil
}

// Feed consumes one batch of references, extending the accumulated stream.
// The batch may alias a buffer the caller reuses; nothing is retained.
func (a *Accum) Feed(t Trace) { a.feed(t, nil) }

// feed is Feed that, when rec is non-nil (len(rec) == len(t)), also records
// every reference's previous position and stack distance there, the input of
// Windows.
//
// The Fenwick tree is kept so that, for every page x seen, the prefix sum up
// to lastPos[x] counts the pages whose latest reference is at or before x's.
// A reuse of a page last seen at prev then follows cold - prefix(prev) latest
// references of other pages, and its distance is that count + 1: one prefix
// query. A reuse of the page just referenced (prev == p-1) has distance 1 and
// leaves the tree alone. Its +1 stays at the start of the run of repeats and
// a later move subtracts 1 at the run's end, so only prefixes ending inside
// the run read wrong, and no page's lastPos is there again. Positions are
// global across feeds, so a run may span batches and Merge needs no extra
// state: its queries, too, end only at some page's lastPos.
func (a *Accum) feed(t Trace, rec []reuse) {
	if len(t) == 0 {
		return
	}
	if int64(a.n)+int64(len(t)) > MaxAccumRefs {
		panic(fmt.Sprintf("lrusim: Accum overflow: %d+%d references exceed MaxAccumRefs", a.n, len(t)))
	}
	n, end := a.n, a.n+len(t)
	a.extendFen(end)
	cold := a.cold
	for i, pg := range t {
		p := n + i
		id, seen := a.lookup(pg)
		if !seen {
			id = a.assign(pg, end)
			cold++
			a.lastPos[id] = int32(p)
			a.fenAdd(p+1, 1)
			if rec != nil {
				rec[i] = reuse{prev: -1}
			}
			continue
		}
		prev := int(a.lastPos[id])
		a.lastPos[id] = int32(p)
		d := 1
		if prev != p-1 {
			d = int(cold) - a.fenPrefix(prev+1) + 1
			a.fenAdd(prev+1, -1)
			a.fenAdd(p+1, 1)
		}
		a.count(d)
		if rec != nil {
			rec[i] = reuse{prev: int32(prev), dist: int32(d)}
		}
	}
	a.n, a.cold = end, cold
}

// Merge appends b's accumulated stream to a's: afterwards a holds exactly the
// state of an accumulator that consumed a's references followed by b's, and
// a.Curve() equals Analyze over the concatenated trace bit for bit.
// b is read, not modified, and remains usable.
//
// The fix-up is the heart of the operation: a reference that was a cold miss
// within b may have a finite stack distance in the concatenation (its page was
// seen in a). Walking b's distinct pages in first-sight order while retiring
// their a-region markers as we go makes that distance exactly
//
//	rank(p in b's first-sight order) + live a-markers above lastA(p) + 1
//
// — the earlier b-pages are counted by rank whether or not a knew them, and
// the a-region query skips exactly the pages already counted, because their
// markers have been retired. Every non-first reference within b keeps the
// distance b already recorded (its reuse window is entirely inside b), so
// b's histogram merges wholesale.
func (a *Accum) Merge(b *Accum) { a.merge(b, nil) }

// merge is Merge that, when rec is non-nil, also patches b's records: rec
// holds what feed recorded for b's references (len(rec) == b.n), with every
// prev already in concatenated positions. b's first sights are its prev == -1
// records, in the order of b.pages, so one cursor walks them beside the
// fix-up, and each that re-references a page of a gets a's last position of
// the page and the distance the fix-up counts. Afterwards rec is what one
// feed of the concatenation would have recorded for b's references.
func (a *Accum) merge(b *Accum, rec []reuse) {
	if b.n == 0 {
		return
	}
	if b == a {
		panic("lrusim: Accum.Merge with itself")
	}
	if int64(a.n)+int64(b.n) > MaxAccumRefs {
		panic(fmt.Sprintf("lrusim: Accum overflow: %d+%d references exceed MaxAccumRefs", a.n, b.n))
	}
	oldN, end := a.n, a.n+b.n
	a.extendFen(end)
	// Within-b distances are unchanged by prefixing a's stream.
	if b.maxDist >= len(a.counts) {
		a.growCounts(b.maxDist)
	}
	if b.maxDist > a.maxDist {
		a.maxDist = b.maxDist
	}
	for d := 1; d <= b.maxDist; d++ {
		a.counts[d] += b.counts[d]
	}
	// First-sight pages of b, in order: fix up the cold misses that are
	// re-references in the concatenation, retire superseded a-markers, and
	// plant each page's merged marker at its last-b position. With rec, j
	// steps to the record of b's r-th first sight.
	j := 0
	for r, pg := range b.pages {
		for rec != nil && rec[j].prev != -1 {
			j++
		}
		if i, inA := a.lookup(pg); inA {
			ip := int(a.lastPos[i])
			d := r + a.fenRange(ip+1, oldN-1) + 1
			a.count(d)
			if rec != nil {
				rec[j] = reuse{prev: int32(ip), dist: int32(d)}
			}
			a.fenAdd(ip+1, -1)
			mp := oldN + int(b.lastPos[r])
			a.lastPos[i] = int32(mp)
			a.fenAdd(mp+1, 1)
			j++
			continue
		}
		id := a.assign(pg, end)
		a.cold++
		mp := oldN + int(b.lastPos[r])
		a.lastPos[id] = int32(mp)
		a.fenAdd(mp+1, 1)
		j++
	}
	a.n = end
}

// Curve materializes the fetch curve of everything accumulated so far. Only
// the returned FetchCurve and its cumulative array are allocated; the Accum
// keeps accumulating afterwards.
func (a *Accum) Curve() *FetchCurve {
	cum := make([]int64, a.maxDist+1)
	var run int64
	for d := 1; d <= a.maxDist; d++ {
		run += a.counts[d]
		cum[d] = run
	}
	return &FetchCurve{cumHits: cum, cold: a.cold, total: int64(a.n)}
}

// Histogram materializes the stack-distance histogram accumulated so far.
func (a *Accum) Histogram() *Histogram {
	h := &Histogram{Total: int64(a.n), Cold: a.cold}
	h.Counts = make([]int64, a.maxDist+1)
	copy(h.Counts, a.counts[:min(len(a.counts), a.maxDist+1)])
	return h
}

// count records one reference at stack distance d, growing the counts table
// as the high-water mark advances.
func (a *Accum) count(d int) {
	if d >= len(a.counts) {
		a.growCounts(d)
	}
	if d > a.maxDist {
		a.maxDist = d
	}
	a.counts[d]++
}

func (a *Accum) growCounts(d int) {
	for len(a.counts) <= d {
		a.counts = append(a.counts, 0)
	}
}

// lookup resolves a raw page id to its dense id without assigning one.
func (a *Accum) lookup(pg storage.PageID) (int32, bool) {
	if a.remap != nil {
		id, ok := a.remap[pg]
		return id, ok
	}
	if int(pg) < len(a.denseOf) {
		if v := a.denseOf[pg]; v != 0 {
			return v - 1, true
		}
	}
	return 0, false
}

// assign registers a first-sight page, returning its new dense id and
// growing lastPos/pages in step. The slice remap is kept while raw ids stay
// within maxSliceRemapFactor of end, the stream length once the current
// batch is consumed; a sparse id migrates everything to the map path until
// the next Reset.
func (a *Accum) assign(pg storage.PageID, end int) int32 {
	id := int32(len(a.pages))
	a.pages = append(a.pages, pg)
	a.lastPos = append(a.lastPos, 0)
	if a.remap != nil {
		a.remap[pg] = id
		return id
	}
	if need := int(pg) + 1; need > len(a.denseOf) {
		if int64(pg) >= int64(maxSliceRemapFactor)*int64(end)+maxSliceRemapSlack {
			// Too sparse for a flat table: migrate to the map, once.
			a.remap = make(map[storage.PageID]int32, len(a.pages)*2)
			for raw, v := range a.denseOf {
				if v != 0 {
					a.remap[storage.PageID(raw)] = v - 1
				}
			}
			a.denseOf = nil
			a.remap[pg] = id
			return id
		}
		if need <= cap(a.denseOf) {
			a.denseOf = a.denseOf[:need]
		} else {
			grown := make([]int32, need, max(need, 2*cap(a.denseOf)))
			copy(grown, a.denseOf)
			a.denseOf = grown
		}
	}
	a.denseOf[pg] = id + 1
	return id
}

// extendFen grows the Fenwick tree to cover positions 1..m. Every position
// past the current stream end holds zero until a marker lands there, so a new
// index is zero unless its covered range reaches back over the old end. Those
// indexes are the old end's update chain, at most one per bit of m, and each
// gets the prefix difference over the old positions it covers.
func (a *Accum) extendFen(m int) {
	n := len(a.fen)
	if m < n {
		return
	}
	if m < cap(a.fen) {
		a.fen = a.fen[:m+1]
		clear(a.fen[n:])
	} else {
		grown := make([]int32, m+1, max(m+1, 2*cap(a.fen)))
		copy(grown, a.fen)
		a.fen = grown
	}
	if old := n - 1; old > 0 { // last position covered before growing
		top := a.fenPrefix(old)
		for i := old + old&(-old); i <= m; i += i & (-i) {
			a.fen[i] = int32(top - a.fenPrefix(i-i&(-i)))
		}
	}
}

func (a *Accum) fenAdd(i int, delta int32) {
	for ; i < len(a.fen); i += i & (-i) {
		a.fen[i] += delta
	}
}

// fenPrefix sums positions 1..i, 1-based; i must be < len(a.fen).
func (a *Accum) fenPrefix(i int) int {
	sum := 0
	for ; i > 0; i -= i & (-i) {
		sum += int(a.fen[i])
	}
	return sum
}

// fenRange sums positions lo..hi inclusive, 0-based stream coordinates.
func (a *Accum) fenRange(lo, hi int) int {
	if hi < lo {
		return 0
	}
	return a.fenPrefix(hi+1) - a.fenPrefix(lo)
}
