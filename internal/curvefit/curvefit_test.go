package curvefit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func linearPoints(n int, slope, intercept float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		x := float64(i)
		pts[i] = Point{X: x, Y: slope*x + intercept}
	}
	return pts
}

// fpfLike generates a convex decreasing curve resembling an FPF curve:
// steep at small B, flattening to A.
func fpfLike(n int, total, accessed float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		x := 1 + float64(i)*100
		y := accessed + (total-accessed)*math.Exp(-x/300)
		pts[i] = Point{X: x, Y: y}
	}
	return pts
}

func TestEvalInterpolation(t *testing.T) {
	pl := PolyLine{Knots: []Point{{0, 0}, {10, 100}, {20, 100}}}
	cases := []struct{ x, want float64 }{
		{0, 0}, {5, 50}, {10, 100}, {15, 100}, {20, 100},
	}
	for _, c := range cases {
		if got := pl.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestEvalExtrapolation(t *testing.T) {
	pl := PolyLine{Knots: []Point{{0, 0}, {10, 100}, {20, 150}}}
	if got := pl.Eval(-5); math.Abs(got-(-50)) > 1e-12 {
		t.Errorf("Eval(-5) = %g, want -50 (first-segment slope)", got)
	}
	if got := pl.Eval(30); math.Abs(got-200) > 1e-12 {
		t.Errorf("Eval(30) = %g, want 200 (last-segment slope)", got)
	}
}

func TestEvalClamped(t *testing.T) {
	pl := PolyLine{Knots: []Point{{0, 0}, {10, 100}}}
	if got := pl.EvalClamped(-100, 0, 100); got != 0 {
		t.Errorf("EvalClamped low = %g", got)
	}
	if got := pl.EvalClamped(1000, 0, 100); got != 100 {
		t.Errorf("EvalClamped high = %g", got)
	}
	if got := pl.EvalClamped(5, 0, 100); got != 50 {
		t.Errorf("EvalClamped mid = %g", got)
	}
}

func TestEvalDegenerate(t *testing.T) {
	if got := (PolyLine{}).Eval(3); got != 0 {
		t.Errorf("empty polyline Eval = %g", got)
	}
	pl := PolyLine{Knots: []Point{{5, 42}}}
	if got := pl.Eval(99); got != 42 {
		t.Errorf("single-knot Eval = %g", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (PolyLine{Knots: []Point{{0, 0}, {1, 1}}}).Validate(); err != nil {
		t.Errorf("valid polyline rejected: %v", err)
	}
	if err := (PolyLine{Knots: []Point{{0, 0}}}).Validate(); err == nil {
		t.Error("1-knot polyline accepted")
	}
	if err := (PolyLine{Knots: []Point{{0, 0}, {0, 1}}}).Validate(); err == nil {
		t.Error("duplicate-x polyline accepted")
	}
	if err := (PolyLine{Knots: []Point{{5, 0}, {1, 1}}}).Validate(); err == nil {
		t.Error("descending-x polyline accepted")
	}
}

func TestFitArgValidation(t *testing.T) {
	fitters := map[string]func([]Point, int) (PolyLine, error){
		"equal": FitEqualSpacing, "greedy": FitGreedy, "optimal": FitOptimal,
	}
	for name, fit := range fitters {
		if _, err := fit([]Point{{0, 0}}, 3); err == nil {
			t.Errorf("%s: accepted 1 point", name)
		}
		if _, err := fit(linearPoints(5, 1, 0), 0); err == nil {
			t.Errorf("%s: accepted 0 segments", name)
		}
		if _, err := fit([]Point{{1, 0}, {0, 1}}, 1); err == nil {
			t.Errorf("%s: accepted unsorted x", name)
		}
	}
}

func TestFittersExactOnLinearData(t *testing.T) {
	pts := linearPoints(20, -3, 1000)
	fitters := map[string]func([]Point, int) (PolyLine, error){
		"equal": FitEqualSpacing, "greedy": FitGreedy, "optimal": FitOptimal,
	}
	for name, fit := range fitters {
		for _, k := range []int{1, 2, 6} {
			pl, err := fit(pts, k)
			if err != nil {
				t.Fatalf("%s(k=%d): %v", name, k, err)
			}
			if err := pl.Validate(); err != nil {
				t.Fatalf("%s(k=%d): invalid polyline: %v", name, k, err)
			}
			if e := MaxAbsError(pl, pts); e > 1e-9 {
				t.Errorf("%s(k=%d): error %g on exactly linear data", name, k, e)
			}
		}
	}
}

func TestFitKnotsAreDataPoints(t *testing.T) {
	pts := fpfLike(40, 100000, 5000)
	for name, fit := range map[string]func([]Point, int) (PolyLine, error){
		"equal": FitEqualSpacing, "greedy": FitGreedy, "optimal": FitOptimal,
	} {
		pl, err := fit(pts, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range pl.Knots {
			found := false
			for _, p := range pts {
				if p == k {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: knot %+v is not a data point", name, k)
			}
		}
		// First and last data points must be knots (range coverage).
		if pl.Knots[0] != pts[0] || pl.Knots[len(pl.Knots)-1] != pts[len(pts)-1] {
			t.Errorf("%s: endpoints not preserved", name)
		}
	}
}

func TestOptimalBeatsOrMatchesOthers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(40)
		pts := make([]Point, n)
		y := 1e6
		for i := range pts {
			y -= rng.Float64() * 1e4
			pts[i] = Point{X: float64(i*50 + rng.Intn(40)), Y: y}
		}
		// Ensure strictly increasing X.
		for i := 1; i < n; i++ {
			if pts[i].X <= pts[i-1].X {
				pts[i].X = pts[i-1].X + 1
			}
		}
		k := 2 + rng.Intn(6)
		opt, err := FitOptimal(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		grd, err := FitGreedy(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := FitEqualSpacing(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		eOpt, eGrd, eEq := MaxAbsError(opt, pts), MaxAbsError(grd, pts), MaxAbsError(eq, pts)
		if eOpt > eGrd+1e-9 || eOpt > eEq+1e-9 {
			t.Errorf("trial %d k=%d: optimal %g worse than greedy %g / equal %g", trial, k, eOpt, eGrd, eEq)
		}
	}
}

func TestMoreSegmentsNeverWorse(t *testing.T) {
	pts := fpfLike(50, 2e5, 1e4)
	prev := math.MaxFloat64
	for k := 1; k <= 10; k++ {
		pl, err := FitOptimal(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		e := MaxAbsError(pl, pts)
		if e > prev+1e-9 {
			t.Errorf("k=%d: error %g worse than k=%d's %g", k, e, k-1, prev)
		}
		prev = e
	}
}

func TestSegmentBudgetClamped(t *testing.T) {
	pts := linearPoints(4, 2, 0)
	for name, fit := range map[string]func([]Point, int) (PolyLine, error){
		"equal": FitEqualSpacing, "greedy": FitGreedy, "optimal": FitOptimal,
	} {
		pl, err := fit(pts, 50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.NumSegments() > 3 {
			t.Errorf("%s: %d segments from 4 points", name, pl.NumSegments())
		}
	}
}

func TestNumSegments(t *testing.T) {
	if (PolyLine{}).NumSegments() != 0 {
		t.Error("empty polyline has segments")
	}
	pl := PolyLine{Knots: []Point{{0, 0}, {1, 1}, {2, 0}}}
	if pl.NumSegments() != 2 {
		t.Errorf("NumSegments = %d, want 2", pl.NumSegments())
	}
}

func TestMeanAbsError(t *testing.T) {
	pl := PolyLine{Knots: []Point{{0, 0}, {10, 0}}}
	pts := []Point{{2, 1}, {4, -1}, {6, 3}}
	if got := MeanAbsError(pl, pts); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Errorf("MeanAbsError = %g", got)
	}
	if MeanAbsError(pl, nil) != 0 {
		t.Error("MeanAbsError(empty) != 0")
	}
}

// Property: Eval is monotone on monotone polylines within the knot range.
func TestEvalMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		knots := make([]Point, n)
		x, y := 0.0, 1e6
		for i := range knots {
			x += 1 + rng.Float64()*100
			y -= rng.Float64() * 1e4
			knots[i] = Point{X: x, Y: y}
		}
		pl := PolyLine{Knots: knots}
		lo, hi := knots[0].X, knots[n-1].X
		prev := math.MaxFloat64
		for i := 0; i <= 100; i++ {
			v := pl.Eval(lo + (hi-lo)*float64(i)/100)
			if v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: fitted polylines evaluated at knot x-values reproduce data
// exactly, and max error decreases to 0 when segments = points-1.
func TestFitExactWithFullBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		pts := make([]Point, n)
		x := 0.0
		for i := range pts {
			x += 1 + rng.Float64()*10
			pts[i] = Point{X: x, Y: rng.Float64() * 1000}
		}
		pl, err := FitOptimal(pts, n-1)
		if err != nil {
			return false
		}
		return MaxAbsError(pl, pts) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The oracle fitters below are the fitters as they stood before the
// chord-error kernel was hoisted and the error table flattened, kept
// verbatim so the faster kernel can be checked against them bit for bit.

func oracleLerp(a, b Point, x float64) float64 {
	if b.X == a.X {
		return a.Y
	}
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

func oracleMaxSegmentError(pts []Point, i, j int) (int, float64) {
	argmax, maxErr := -1, 0.0
	for p := i + 1; p < j; p++ {
		e := math.Abs(pts[p].Y - oracleLerp(pts[i], pts[j], pts[p].X))
		if e > maxErr {
			argmax, maxErr = p, e
		}
	}
	return argmax, maxErr
}

func oracleFitGreedy(pts []Point, segments int) (PolyLine, error) {
	if err := checkFitArgs(pts, segments); err != nil {
		return PolyLine{}, err
	}
	knotIdx := []int{0, len(pts) - 1}
	for len(knotIdx)-1 < segments {
		worstSeg, worstPoint, worstErr := -1, -1, 0.0
		for s := 0; s+1 < len(knotIdx); s++ {
			i, j := knotIdx[s], knotIdx[s+1]
			p, e := oracleMaxSegmentError(pts, i, j)
			if e > worstErr {
				worstSeg, worstPoint, worstErr = s, p, e
			}
		}
		if worstSeg < 0 || worstErr == 0 {
			break
		}
		knotIdx = append(knotIdx, 0)
		copy(knotIdx[worstSeg+2:], knotIdx[worstSeg+1:])
		knotIdx[worstSeg+1] = worstPoint
	}
	return polylineFromIndices(pts, knotIdx), nil
}

func oracleFitOptimal(pts []Point, segments int) (PolyLine, error) {
	if err := checkFitArgs(pts, segments); err != nil {
		return PolyLine{}, err
	}
	n := len(pts)
	if segments > n-1 {
		segments = n - 1
	}
	segErr := make([][]float64, n)
	for i := 0; i < n; i++ {
		segErr[i] = make([]float64, n)
		for j := i + 1; j < n; j++ {
			_, e := oracleMaxSegmentError(pts, i, j)
			segErr[i][j] = e
		}
	}
	const inf = math.MaxFloat64
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
				e := math.Max(dp[s-1][i], segErr[i][j])
				if e < dp[s][j] {
					dp[s][j] = e
					parent[s][j] = i
				}
			}
		}
	}
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
	for a, b := 0, len(idx)-1; a < b; a, b = a+1, b-1 {
		idx[a], idx[b] = idx[b], idx[a]
	}
	return polylineFromIndices(pts, idx), nil
}

// oracleInput draws one fitter input: strictly increasing x with random
// gaps, and y from one of the shapes that stress the error kernel's ties
// and rounding.
func oracleInput(rng *rand.Rand) []Point {
	n := 2 + rng.Intn(70)
	pts := make([]Point, n)
	x := rng.Float64() * 100
	for i := range pts {
		x += 0.25 + rng.Float64()*float64(1+rng.Intn(500))
		pts[i].X = x
	}
	switch rng.Intn(5) {
	case 0: // tie-heavy: many equal chord errors
		for i := range pts {
			pts[i].Y = float64(rng.Intn(4))
		}
	case 1: // flat runs broken by steps
		y := float64(rng.Intn(1000))
		for i := range pts {
			if rng.Intn(6) == 0 {
				y = float64(rng.Intn(1000))
			}
			pts[i].Y = y
		}
	case 2: // monotone decreasing, FPF-like: steep, then flat at A
		total := 1e3 + rng.Float64()*1e9
		accessed := total * rng.Float64()
		scale := 1 + rng.Float64()*x
		for i := range pts {
			pts[i].Y = math.Round(accessed + (total-accessed)*math.Exp(-pts[i].X/scale))
		}
	case 3: // large values, integers as fetch counts are
		for i := range pts {
			pts[i].Y = float64(rng.Int63n(1e9 + 1))
		}
	default: // arbitrary reals
		for i := range pts {
			pts[i].Y = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(10)))
		}
	}
	return pts
}

func knotsIdentical(a, b PolyLine) bool {
	if len(a.Knots) != len(b.Knots) {
		return false
	}
	for i := range a.Knots {
		if math.Float64bits(a.Knots[i].X) != math.Float64bits(b.Knots[i].X) ||
			math.Float64bits(a.Knots[i].Y) != math.Float64bits(b.Knots[i].Y) {
			return false
		}
	}
	return true
}

func TestFittersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for c := 0; c < 10_000; c++ {
		pts := oracleInput(rng)
		segments := 1 + rng.Intn(8)
		// The kernel itself, on a sample of chords: a rounding change that
		// happens not to move any knot still shows here.
		for k := 0; k < 20; k++ {
			i := rng.Intn(len(pts) - 1)
			j := i + 1 + rng.Intn(len(pts)-1-i)
			p, e := maxSegmentError(pts, i, j)
			wp, we := oracleMaxSegmentError(pts, i, j)
			if p != wp || math.Float64bits(e) != math.Float64bits(we) {
				t.Fatalf("case %d chord %d..%d: error %v at %d, oracle %v at %d", c, i, j, e, p, we, wp)
			}
		}
		for _, f := range []struct {
			name      string
			fit, want func([]Point, int) (PolyLine, error)
		}{{"FitOptimal", FitOptimal, oracleFitOptimal}, {"FitGreedy", FitGreedy, oracleFitGreedy}} {
			got, err := f.fit(pts, segments)
			want, werr := f.want(pts, segments)
			if err != nil || werr != nil {
				t.Fatalf("case %d %s: errors %v / %v", c, f.name, err, werr)
			}
			if !knotsIdentical(got, want) {
				t.Fatalf("case %d %s(%d points, %d segments): knots %v, oracle %v", c, f.name, len(pts), segments, got.Knots, want.Knots)
			}
		}
	}
}

// BenchmarkFitOptimal fits the six-segment LRU-Fit polyline to an 80-point
// FPF-shaped grid, the size of one synthetic index's grid.
func BenchmarkFitOptimal(b *testing.B) {
	pts := fpfLike(80, 25_000, 625)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitOptimal(pts, 6); err != nil {
			b.Fatal(err)
		}
	}
}
