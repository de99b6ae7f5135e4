package lrusim

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
// A Windows is read-only after NewWindows returns and safe for concurrent
// use.
type Windows struct {
	rec []reuse
}

// reuse is what the whole-trace pass records for one position.
type reuse struct {
	prev int32 // position of the previous reference to the page, -1 if none
	dist int32 // whole-trace stack distance, 0 when prev is -1
}

// NewWindows runs one stack pass over t with a pooled Accum and returns its
// window index. The index keeps 8 bytes per reference and does not retain t.
func NewWindows(t Trace) *Windows {
	w := &Windows{rec: make([]reuse, len(t))}
	a := accumPool.Get().(*Accum)
	a.Reset()
	a.feed(t, w.rec)
	accumPool.Put(a)
	return w
}

// Curve returns the fetch curve of the window t[lo:hi]. Like slicing the
// trace, it panics unless 0 <= lo <= hi <= len(t).
func (w *Windows) Curve(lo, hi int) *FetchCurve {
	win := w.rec[lo:hi]
	from := int32(lo)
	// Both sweeps are branch-free: (prev-from)>>31 is all ones exactly when
	// prev < lo, which masks the reference's distance to 0, the cold slot.
	// The first sweep finds the window's own largest distance, sizing
	// cumHits exactly as Analyze of the sliced trace would.
	maxDist := int32(0)
	for _, r := range win {
		maxDist = max(maxDist, r.dist&^((r.prev-from)>>31))
	}
	cum := make([]int64, maxDist+1)
	for _, r := range win {
		cum[r.dist&^((r.prev-from)>>31)]++
	}
	cum[0] = 0
	var hits int64
	for d := 1; d <= int(maxDist); d++ {
		hits += cum[d]
		cum[d] = hits
	}
	n := int64(len(win))
	return &FetchCurve{cumHits: cum, cold: n - hits, total: n}
}
