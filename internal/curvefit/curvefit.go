// Package curvefit approximates monotone curves — in this system, full-index-
// scan page-fetch (FPF) curves F(B) — by polylines with a small number of
// segments, as Subprogram LRU-Fit requires:
//
//	"We use the simple but adequate method of approximating the FPF curve
//	 using line segments ... The line segment information is captured by
//	 storing the coordinates of the end-points of the line segments."
//
// Three fitters are provided, all selecting knots from the data points so the
// polyline passes through measured values exactly:
//
//   - FitEqualSpacing: knots at (approximately) equally spaced indices. The
//     cheapest possible choice; the baseline for the fitter ablation.
//   - FitGreedy: Douglas–Peucker-style recursive splitting at the point of
//     maximum vertical error. Near-optimal in practice, O(n k).
//   - FitOptimal: dynamic program minimizing the maximum absolute vertical
//     error for exactly k segments (cf. Natarajan 1991). The DP is O(n^2 k),
//     but filling its n×n chord-error table costs O(n^3), the dominant term;
//     the default for LRU-Fit, since the FPF grids are tiny (tens of points).
package curvefit

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is one (x, y) sample of a curve.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// PolyLine is a piecewise-linear function through Knots, which are strictly
// increasing in X. Evaluation interpolates between knots and extrapolates
// beyond the ends using the slope of the first/last segment (the paper:
// "If the buffer pool size falls outside of the range, extrapolation is used
// to generate page fetch estimates").
type PolyLine struct {
	Knots []Point `json:"knots"`
}

// Errors returned by this package.
var (
	ErrTooFewPoints = errors.New("curvefit: need at least 2 points")
	ErrBadSegments  = errors.New("curvefit: segment count must be >= 1")
	ErrUnsortedX    = errors.New("curvefit: points must be strictly increasing in x")
)

// NumSegments reports the number of line segments.
func (pl PolyLine) NumSegments() int {
	if len(pl.Knots) < 2 {
		return 0
	}
	return len(pl.Knots) - 1
}

// Validate checks the strictly-increasing-X invariant.
func (pl PolyLine) Validate() error {
	if len(pl.Knots) < 2 {
		return fmt.Errorf("%w: polyline has %d knots", ErrTooFewPoints, len(pl.Knots))
	}
	for i := 1; i < len(pl.Knots); i++ {
		if !(pl.Knots[i].X > pl.Knots[i-1].X) {
			return fmt.Errorf("%w: knot %d x=%g after x=%g", ErrUnsortedX, i, pl.Knots[i].X, pl.Knots[i-1].X)
		}
	}
	return nil
}

// Eval returns the polyline's value at x, extrapolating linearly beyond the
// first and last knots. Eval on a polyline with fewer than 2 knots returns
// the single knot's Y or 0.
func (pl PolyLine) Eval(x float64) float64 {
	k := pl.Knots
	switch len(k) {
	case 0:
		return 0
	case 1:
		return k[0].Y
	}
	if x <= k[0].X {
		return lerp(k[0], k[1], x)
	}
	if x >= k[len(k)-1].X {
		return lerp(k[len(k)-2], k[len(k)-1], x)
	}
	// Binary search for the segment containing x.
	i := sort.Search(len(k), func(i int) bool { return k[i].X >= x })
	return lerp(k[i-1], k[i], x)
}

func lerp(a, b Point, x float64) float64 {
	if b.X == a.X {
		return a.Y
	}
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// EvalClamped evaluates like Eval but clamps the result into [lo, hi];
// useful for fetch curves where extrapolation must never leave physical
// bounds (A <= F <= N).
func (pl PolyLine) EvalClamped(x, lo, hi float64) float64 {
	v := pl.Eval(x)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func checkFitArgs(pts []Point, segments int) error {
	if len(pts) < 2 {
		return fmt.Errorf("%w: got %d", ErrTooFewPoints, len(pts))
	}
	if segments < 1 {
		return fmt.Errorf("%w: got %d", ErrBadSegments, segments)
	}
	for i := 1; i < len(pts); i++ {
		if !(pts[i].X > pts[i-1].X) {
			return fmt.Errorf("%w: point %d x=%g after x=%g", ErrUnsortedX, i, pts[i].X, pts[i-1].X)
		}
	}
	return nil
}

// FitEqualSpacing picks segment+1 knots at equally spaced indices (always
// including the first and last point).
func FitEqualSpacing(pts []Point, segments int) (PolyLine, error) {
	if err := checkFitArgs(pts, segments); err != nil {
		return PolyLine{}, err
	}
	if segments > len(pts)-1 {
		segments = len(pts) - 1
	}
	knots := make([]Point, 0, segments+1)
	for s := 0; s <= segments; s++ {
		idx := s * (len(pts) - 1) / segments
		knots = append(knots, pts[idx])
	}
	return PolyLine{Knots: dedupeKnots(knots)}, nil
}

// FitGreedy starts from the single segment (first, last) and repeatedly
// splits the segment with the largest maximum vertical error at its argmax
// point, until the segment budget is used or the fit is exact.
func FitGreedy(pts []Point, segments int) (PolyLine, error) {
	if err := checkFitArgs(pts, segments); err != nil {
		return PolyLine{}, err
	}
	knotIdx := []int{0, len(pts) - 1}
	for len(knotIdx)-1 < segments {
		worstSeg, worstPoint, worstErr := -1, -1, 0.0
		for s := 0; s+1 < len(knotIdx); s++ {
			i, j := knotIdx[s], knotIdx[s+1]
			p, e := maxSegmentError(pts, i, j)
			if e > worstErr {
				worstSeg, worstPoint, worstErr = s, p, e
			}
		}
		if worstSeg < 0 || worstErr == 0 {
			break // exact fit already
		}
		knotIdx = append(knotIdx, 0)
		copy(knotIdx[worstSeg+2:], knotIdx[worstSeg+1:])
		knotIdx[worstSeg+1] = worstPoint
	}
	return polylineFromIndices(pts, knotIdx), nil
}

// FitOptimal computes the polyline through data points with exactly the given
// number of segments (fewer if the data has fewer points) minimizing the
// maximum absolute vertical error, by dynamic programming over knot indices.
func FitOptimal(pts []Point, segments int) (PolyLine, error) {
	if err := checkFitArgs(pts, segments); err != nil {
		return PolyLine{}, err
	}
	n := len(pts)
	if segments > n-1 {
		segments = n - 1
	}
	// segErr[i*n+j] = max abs error of the chord pts[i]..pts[j] over points
	// strictly between them.
	segErr := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_, segErr[i*n+j] = maxSegmentError(pts, i, j)
		}
	}
	const inf = math.MaxFloat64
	// dp[s][j] = minimal max-error covering pts[0..j] with s segments ending
	// at knot j; parent[s][j] = previous knot.
	dp := make([][]float64, segments+1)
	parent := make([][]int, segments+1)
	for s := range dp {
		dp[s] = make([]float64, n)
		parent[s] = make([]int, n)
		for j := range dp[s] {
			dp[s][j] = inf
			parent[s][j] = -1
		}
	}
	dp[0][0] = 0
	for s := 1; s <= segments; s++ {
		for j := 1; j < n; j++ {
			for i := s - 1; i < j; i++ {
				if dp[s-1][i] == inf {
					continue
				}
				e := math.Max(dp[s-1][i], segErr[i*n+j])
				if e < dp[s][j] {
					dp[s][j] = e
					parent[s][j] = i
				}
			}
		}
	}
	// Choose the smallest s achieving the best error at j = n-1 (the DP with
	// exactly `segments` segments can always pad with zero-length... it
	// cannot: knots are distinct indices, so fewer points than segments+1 is
	// handled by the clamp above; take s = segments).
	idx := []int{n - 1}
	s, j := segments, n-1
	for s > 0 {
		j = parent[s][j]
		if j < 0 {
			return PolyLine{}, fmt.Errorf("curvefit: internal: broken DP backtrack at s=%d", s)
		}
		idx = append(idx, j)
		s--
	}
	// Reverse.
	for a, b := 0, len(idx)-1; a < b; a, b = a+1, b-1 {
		idx[a], idx[b] = idx[b], idx[a]
	}
	return polylineFromIndices(pts, idx), nil
}

// maxSegmentError returns the index and value of the maximum absolute
// vertical deviation of points strictly between i and j from the chord
// through pts[i] and pts[j]. It is the fitters' inner loop, so the chord is
// hoisted out of it; each error is lerp's value to the bit, computed in
// lerp's order of operations (X is strictly increasing, so dx > 0).
func maxSegmentError(pts []Point, i, j int) (int, float64) {
	a := pts[i]
	dx, dy := pts[j].X-a.X, pts[j].Y-a.Y
	argmax, maxErr := -1, 0.0
	for k, q := range pts[i+1 : j] {
		e := math.Abs(q.Y - (a.Y + ((q.X-a.X)/dx)*dy))
		if e > maxErr {
			argmax, maxErr = i+1+k, e
		}
	}
	return argmax, maxErr
}

func polylineFromIndices(pts []Point, idx []int) PolyLine {
	sort.Ints(idx)
	knots := make([]Point, 0, len(idx))
	for _, i := range idx {
		knots = append(knots, pts[i])
	}
	return PolyLine{Knots: dedupeKnots(knots)}
}

func dedupeKnots(knots []Point) []Point {
	out := knots[:0]
	for _, k := range knots {
		if len(out) == 0 || k.X > out[len(out)-1].X {
			out = append(out, k)
		}
	}
	return out
}

// MaxAbsError evaluates the polyline at every data point and returns the
// largest absolute deviation.
func MaxAbsError(pl PolyLine, pts []Point) float64 {
	worst := 0.0
	for _, p := range pts {
		if e := math.Abs(pl.Eval(p.X) - p.Y); e > worst {
			worst = e
		}
	}
	return worst
}

// MeanAbsError evaluates the polyline at every data point and returns the
// mean absolute deviation. Returns 0 for empty input.
func MeanAbsError(pl PolyLine, pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pts {
		sum += math.Abs(pl.Eval(p.X) - p.Y)
	}
	return sum / float64(len(pts))
}
