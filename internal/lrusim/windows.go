package lrusim

import "sync"

// Windows answers the exact LRU fetch curve of any contiguous window
// t[lo:hi] of one trace after a single Mattson pass over the whole trace.
//
// The identity it rests on: take a reference at position i whose previous
// reference to the same page is at p. When p >= lo, its stack distance
// inside the window [lo, hi) equals its distance in the whole trace, because
// both count the distinct pages referenced in (p, i) and all of them lie in
// the window. Every other reference in the window is the window's first
// touch of its page, a cold miss. So once the pass has recorded (p, d) for
// every position, a window's curve is a linear filter over [lo, hi) with no
// simulation at all. Curve is bit-identical to Analyze(t[lo:hi]).
//
// NewWindows splits its pass the way Analyze does, so a long trace is
// recorded on every core. A Windows is read-only after NewWindows returns
// and safe for concurrent use: any number of goroutines may call Curve at
// once.
type Windows struct {
	rec     []reuse
	maxDist int32 // largest whole-trace stack distance in rec
}

// reuse is what the whole-trace pass records for one position.
type reuse struct {
	prev int32 // position of the previous reference to the page, -1 if none
	dist int32 // whole-trace stack distance, 0 when prev is -1
}

// NewWindows runs one stack pass over t and returns its window index. The
// index keeps 8 bytes per reference and does not retain t. A trace of at
// least 2*minChunkRefs references is cut into up to GOMAXPROCS contiguous
// chunks: each is fed on its own goroutine into a pooled Accum, recording
// into its own part of the index, and Merge's fix-up patches the records of
// every later chunk's first touches, so the index is the serial pass's, bit
// for bit. A shorter trace, or GOMAXPROCS = 1, takes the serial pass on one
// pooled Accum. Either way NewWindows allocates the index; the split adds
// Analyze's per-chunk allocations.
func NewWindows(t Trace) *Windows {
	w := &Windows{rec: make([]reuse, len(t))}
	a := analyzeParts(t, w.rec, splitParts(t))
	w.maxDist = int32(a.maxDist)
	accumPool.Put(a)
	return w
}

// curveScratch holds the count tables Curve fills, each all zeros between
// calls and grown to the largest maxDist it has served.
var curveScratch = sync.Pool{New: func() any { return new([]int64) }}

// Curve returns the fetch curve of the window t[lo:hi]. Like slicing the
// trace, it panics unless 0 <= lo <= hi <= len(t). It reads the window's
// records once, counting into a pooled table sized from the whole trace's
// largest distance, and allocates only the curve and its cumulative array.
func (w *Windows) Curve(lo, hi int) *FetchCurve {
	win := w.rec[lo:hi]
	from := int32(lo)
	sp := curveScratch.Get().(*[]int64)
	if len(*sp) <= int(w.maxDist) {
		*sp = make([]int64, w.maxDist+1)
	}
	cnt := (*sp)[:w.maxDist+1]
	// Branch-free: (prev-from)>>31 is all ones exactly when prev < lo, which
	// masks the reference's distance to 0, the cold slot. The window's own
	// largest distance sizes cumHits exactly as Analyze of the sliced trace
	// would.
	maxDist := int32(0)
	for _, r := range win {
		d := r.dist &^ ((r.prev - from) >> 31)
		cnt[d]++
		maxDist = max(maxDist, d)
	}
	cum := make([]int64, maxDist+1)
	cnt[0] = 0
	var hits int64
	for d := 1; d <= int(maxDist); d++ {
		hits += cnt[d]
		cum[d] = hits
		cnt[d] = 0
	}
	curveScratch.Put(sp)
	n := int64(len(win))
	return &FetchCurve{cumHits: cum, cold: n - hits, total: n}
}
