package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epfis/internal/datagen"
	"epfis/internal/lrusim"
	"epfis/internal/stats"
	"epfis/internal/storage"
)

func TestModelingRangeDefaults(t *testing.T) {
	cases := []struct {
		t       int64
		wantMin int64
		wantMax int64
	}{
		{10_000, 100, 10_000}, // 0.01*T dominates B_sml
		{500, 12, 500},        // B_sml = 12 dominates
		{8, 8, 8},             // tiny table: clamp to T
		{1, 1, 1},
	}
	for _, c := range cases {
		gotMin, gotMax := ModelingRange(c.t, Options{})
		if gotMin != c.wantMin || gotMax != c.wantMax {
			t.Errorf("ModelingRange(%d) = [%d, %d], want [%d, %d]", c.t, gotMin, gotMax, c.wantMin, c.wantMax)
		}
	}
}

func TestModelingRangeDBAOverride(t *testing.T) {
	gotMin, gotMax := ModelingRange(10_000, Options{BMin: 50, BMax: 2000})
	if gotMin != 50 || gotMax != 2000 {
		t.Errorf("override = [%d, %d]", gotMin, gotMax)
	}
}

func TestModelingGridArithmetic(t *testing.T) {
	grid := ModelingGrid(100, 10_000, SpacingArithmetic)
	if grid[0] != 100 || grid[len(grid)-1] != 10_000 {
		t.Fatalf("grid endpoints = %d, %d", grid[0], grid[len(grid)-1])
	}
	// Paper's step: 2*sqrt(9900) ~ 199. Interior steps must match.
	step := 2 * math.Sqrt(9900)
	for i := 1; i < len(grid)-1; i++ {
		d := float64(grid[i] - grid[i-1])
		if math.Abs(d-step) > 1.0 {
			t.Errorf("step %d->%d = %g, want ~%g", grid[i-1], grid[i], d, step)
		}
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid not strictly increasing at %d", i)
		}
	}
}

func TestModelingGridGeometric(t *testing.T) {
	grid := ModelingGrid(100, 10_000, SpacingGeometric)
	if grid[0] != 100 || grid[len(grid)-1] != 10_000 {
		t.Fatalf("grid endpoints = %d, %d", grid[0], grid[len(grid)-1])
	}
	// Geometric spacing: later gaps larger than earlier gaps.
	first := grid[1] - grid[0]
	last := grid[len(grid)-1] - grid[len(grid)-2]
	if last <= first {
		t.Errorf("geometric grid gaps: first %d, last %d", first, last)
	}
}

func TestModelingGridDegenerate(t *testing.T) {
	if g := ModelingGrid(5, 5, SpacingArithmetic); len(g) != 1 || g[0] != 5 {
		t.Errorf("point grid = %v", g)
	}
	if g := ModelingGrid(3, 9, SpacingArithmetic); g[0] != 3 || g[len(g)-1] != 9 {
		t.Errorf("small grid = %v", g)
	}
	if g := ModelingGrid(0, 0, SpacingGeometric); len(g) != 1 || g[0] != 1 {
		t.Errorf("clamped grid = %v", g)
	}
}

// clusteredTrace: records in page order, perPage records per page.
func clusteredTrace(pages, perPage int) lrusim.Trace {
	tr := make(lrusim.Trace, 0, pages*perPage)
	for p := 0; p < pages; p++ {
		for r := 0; r < perPage; r++ {
			tr = append(tr, storage.PageID(p))
		}
	}
	return tr
}

// roundRobinTrace: worst-case unclustered — consecutive records on
// consecutive pages, cycling.
func roundRobinTrace(pages, perPage int) lrusim.Trace {
	tr := make(lrusim.Trace, 0, pages*perPage)
	for r := 0; r < perPage; r++ {
		for p := 0; p < pages; p++ {
			tr = append(tr, storage.PageID(p))
		}
	}
	return tr
}

func fitted(t *testing.T, trace lrusim.Trace, meta Meta, opts Options) *stats.IndexStats {
	t.Helper()
	st, err := LRUFit(trace, meta, opts)
	if err != nil {
		t.Fatalf("LRUFit: %v", err)
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("fitted stats invalid: %v", err)
	}
	return st
}

func TestLRUFitClusteredIndex(t *testing.T) {
	const pages, perPage = 2000, 50
	meta := Meta{Table: "t", Column: "c", T: pages, N: pages * perPage, I: pages * perPage}
	st := fitted(t, clusteredTrace(pages, perPage), meta, Options{})
	if st.C < 0.999 {
		t.Errorf("clustered C = %g, want ~1", st.C)
	}
	// FPF curve must be flat at T.
	for _, b := range []int64{st.BMin, (st.BMin + st.BMax) / 2, st.BMax} {
		got := st.Curve.Eval(float64(b))
		if math.Abs(got-float64(pages)) > 1 {
			t.Errorf("FPF(%d) = %g, want %d", b, got, pages)
		}
	}
	if st.FMin != pages {
		t.Errorf("FMin = %d, want %d", st.FMin, pages)
	}
}

func TestLRUFitWorstCaseUnclustered(t *testing.T) {
	const pages, perPage = 2000, 50
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n}
	st := fitted(t, roundRobinTrace(pages, perPage), meta, Options{})
	// Round-robin with BMin << pages: every reference misses -> F_min = N.
	if st.FMin != n {
		t.Errorf("FMin = %d, want %d", st.FMin, n)
	}
	if st.C > 0.001 {
		t.Errorf("worst-case C = %g, want ~0", st.C)
	}
	// At B = T the buffer holds everything: FPF(BMax) = T.
	if got := st.Curve.Eval(float64(st.BMax)); math.Abs(got-float64(pages)) > 1 {
		t.Errorf("FPF(BMax) = %g, want %d", got, pages)
	}
	// At B = BMin: FPF = N.
	if got := st.Curve.Eval(float64(st.BMin)); math.Abs(got-float64(n)) > 1 {
		t.Errorf("FPF(BMin) = %g, want %d", got, n)
	}
}

func TestLRUFitCurveAccuracy(t *testing.T) {
	// The 6-segment approximation must track the true FPF curve closely at
	// every grid point for a realistic mixed trace.
	rng := rand.New(rand.NewSource(9))
	const pages, perPage = 1500, 40
	n := pages * perPage
	trace := make(lrusim.Trace, 0, n)
	window := pages / 10
	for i := 0; i < n; i++ {
		base := i * pages / n
		p := base + rng.Intn(window) - window/2
		if p < 0 {
			p = 0
		}
		if p >= pages {
			p = pages - 1
		}
		trace = append(trace, storage.PageID(p))
	}
	meta := Meta{Table: "t", Column: "c", T: pages, N: int64(n), I: int64(n / 10)}
	st := fitted(t, trace, meta, Options{})
	truth := lrusim.Analyze(trace)
	grid := ModelingGrid(st.BMin, st.BMax, SpacingArithmetic)
	for _, b := range grid {
		want := float64(truth.Fetches(b))
		got := st.Curve.Eval(float64(b))
		if relErr := math.Abs(got-want) / math.Max(want, 1); relErr > 0.10 {
			t.Errorf("FPF(%d) = %g, truth %g (rel err %.1f%%)", b, got, want, relErr*100)
		}
	}
}

func TestLRUFitValidation(t *testing.T) {
	trace := clusteredTrace(10, 2)
	if _, err := LRUFit(trace, Meta{T: 0, N: 20, I: 20}, Options{}); !errors.Is(err, ErrBadMeta) {
		t.Errorf("T=0 err = %v", err)
	}
	if _, err := LRUFit(trace, Meta{T: 10, N: 20, I: 0}, Options{}); !errors.Is(err, ErrBadMeta) {
		t.Errorf("I=0 err = %v", err)
	}
	if _, err := LRUFit(trace, Meta{T: 10, N: 21, I: 5}, Options{}); !errors.Is(err, ErrBadTrace) {
		t.Errorf("length mismatch err = %v", err)
	}
}

func TestLRUFitTinyTable(t *testing.T) {
	// A 3-page table: modeling range collapses but must still work.
	meta := Meta{Table: "t", Column: "c", T: 3, N: 6, I: 6}
	st := fitted(t, clusteredTrace(3, 2), meta, Options{})
	if got := st.Curve.Eval(float64(st.BMax)); math.Abs(got-3) > 0.5 {
		t.Errorf("tiny-table FPF = %g", got)
	}
}

func TestEstIOFullScan(t *testing.T) {
	const pages, perPage = 2000, 50
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n}
	st := fitted(t, roundRobinTrace(pages, perPage), meta, Options{})
	truth := lrusim.Analyze(roundRobinTrace(pages, perPage))
	for _, b := range []int64{100, 500, 1000, 1500, 2000} {
		est, err := EstIO(st, Input{B: b, Sigma: 1, S: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(truth.Fetches(int(b)))
		if relErr := math.Abs(est.F-want) / want; relErr > 0.10 {
			t.Errorf("full scan B=%d: est %g, actual %g (%.1f%%)", b, est.F, want, relErr*100)
		}
		// Full scans take no small-sigma correction (phi <= 1 < 3).
		if est.Nu != 0 {
			t.Errorf("full scan B=%d: nu = 1", b)
		}
	}
}

func TestEstIOClusteredPartialScan(t *testing.T) {
	const pages, perPage = 2000, 50
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n}
	st := fitted(t, clusteredTrace(pages, perPage), meta, Options{})
	for _, sigma := range []float64{0.1, 0.3, 0.7} {
		est, err := EstIO(st, Input{B: 200, Sigma: sigma, S: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := sigma * pages
		if relErr := math.Abs(est.F-want) / want; relErr > 0.05 {
			t.Errorf("clustered sigma=%g: est %g, want ~%g", sigma, est.F, want)
		}
	}
}

func TestEstIOSmallSigmaCorrection(t *testing.T) {
	const pages, perPage = 2000, 50
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n}
	st := fitted(t, roundRobinTrace(pages, perPage), meta, Options{})
	// Buffer as large as the table (the full scan caches perfectly, so
	// PF_B = T and sigma*PF_B is tiny), tiny sigma, unclustered index:
	// all three of the paper's trigger conditions. The partial scan gets no
	// benefit from the big buffer — it touches each page once — so the
	// uncorrected estimate is an order of magnitude too low.
	in := Input{B: pages, Sigma: 0.01, S: 1}
	with, err := EstIO(st, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := EstIO(st, in, Options{DisableCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Nu != 1 {
		t.Fatalf("nu = 0, want 1 (phi=%g sigma=%g)", with.Phi, in.Sigma)
	}
	if with.Correction <= 0 {
		t.Errorf("correction = %g, want > 0", with.Correction)
	}
	if with.F <= without.F {
		t.Errorf("corrected %g <= uncorrected %g", with.F, without.F)
	}
	// Ground truth: simulate the actual partial scan (the first sigma*N
	// index entries) through an LRU buffer of size B.
	partial := roundRobinTrace(pages, perPage)[:int(in.Sigma*float64(n))]
	truth := float64(lrusim.Analyze(partial).Fetches(int(in.B)))
	if math.Abs(with.F-truth) >= math.Abs(without.F-truth) {
		t.Errorf("correction did not help: with=%g without=%g truth=%g", with.F, without.F, truth)
	}
	if relErr := math.Abs(with.F-truth) / truth; relErr > 0.35 {
		t.Errorf("corrected estimate %g vs truth %g (rel err %.0f%%)", with.F, truth, relErr*100)
	}
}

func TestEstIOCorrectionOffForClustered(t *testing.T) {
	const pages, perPage = 2000, 50
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n}
	st := fitted(t, clusteredTrace(pages, perPage), meta, Options{})
	est, err := EstIO(st, Input{B: 1800, Sigma: 0.01, S: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (1 - C) ~ 0 kills the correction term even though nu = 1.
	if est.Correction > 1 {
		t.Errorf("clustered correction = %g, want ~0", est.Correction)
	}
}

func TestEstIOSargablePredicates(t *testing.T) {
	const pages, perPage = 2000, 50
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n / 100}
	st := fitted(t, roundRobinTrace(pages, perPage), meta, Options{})
	base, err := EstIO(st, Input{B: 500, Sigma: 0.3, S: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.SargableFactor != 1 {
		t.Errorf("S=1 sargable factor = %g, want 1", base.SargableFactor)
	}
	reduced, err := EstIO(st, Input{B: 500, Sigma: 0.3, S: 0.05}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reduced.SargableFactor >= 1 || reduced.SargableFactor <= 0 {
		t.Errorf("S=0.05 sargable factor = %g", reduced.SargableFactor)
	}
	if reduced.F >= base.F {
		t.Errorf("sargable estimate %g >= base %g", reduced.F, base.F)
	}
	// S=0 is out of the valid domain (0, 1]: a zero sargable selectivity
	// means "matches nothing" and must not be silently remapped to 1.
	if _, err := EstIO(st, Input{B: 500, Sigma: 0.3, S: 0}, Options{}); !errors.Is(err, ErrBadSarg) {
		t.Errorf("S=0 err = %v, want ErrBadSarg", err)
	}
}

func TestEstIOZeroSigma(t *testing.T) {
	meta := Meta{Table: "t", Column: "c", T: 100, N: 1000, I: 100}
	st := fitted(t, clusteredTrace(100, 10), meta, Options{})
	est, err := EstIO(st, Input{B: 50, Sigma: 0, S: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.F != 0 {
		t.Errorf("sigma=0 estimate = %g", est.F)
	}
}

func TestEstIOInputValidation(t *testing.T) {
	meta := Meta{Table: "t", Column: "c", T: 100, N: 1000, I: 100}
	st := fitted(t, clusteredTrace(100, 10), meta, Options{})
	bad := []struct {
		in   Input
		want error
	}{
		{Input{B: 0, Sigma: 0.5, S: 1}, ErrBadBuffer},
		{Input{B: -3, Sigma: 0.5, S: 1}, ErrBadBuffer},
		{Input{B: 10, Sigma: -0.1, S: 1}, ErrBadSigma},
		{Input{B: 10, Sigma: 1.1, S: 1}, ErrBadSigma},
		{Input{B: 10, Sigma: math.NaN(), S: 1}, ErrBadSigma},
		{Input{B: 10, Sigma: 0.5, S: -1}, ErrBadSarg},
		{Input{B: 10, Sigma: 0.5, S: 0}, ErrBadSarg},
		{Input{B: 10, Sigma: 0.5, S: 2}, ErrBadSarg},
		{Input{B: 10, Sigma: 0.5, S: math.NaN()}, ErrBadSarg},
	}
	for _, tc := range bad {
		_, err := EstIO(st, tc.in, Options{})
		if !errors.Is(err, tc.want) {
			t.Errorf("EstIO(%+v) err = %v, want %v", tc.in, err, tc.want)
		}
		// Every input sentinel also matches the umbrella ErrBadInput.
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("EstIO(%+v) err = %v does not wrap ErrBadInput", tc.in, err)
		}
	}
}

func TestEstIOPhiVariants(t *testing.T) {
	const pages, perPage = 2000, 50
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n}
	st := fitted(t, roundRobinTrace(pages, perPage), meta, Options{})
	in := Input{B: 100, Sigma: 0.2, S: 1}
	minVar, err := EstIO(st, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxVar, err := EstIO(st, in, Options{PhiUsesMax: true})
	if err != nil {
		t.Fatal(err)
	}
	// With B/T = 0.05 < 3*sigma = 0.6 the min variant must not correct;
	// the printed max variant (phi = 1 >= 0.6) must.
	if minVar.Nu != 0 {
		t.Errorf("min variant nu = %d, want 0", minVar.Nu)
	}
	if maxVar.Nu != 1 {
		t.Errorf("max variant nu = %d, want 1", maxVar.Nu)
	}
}

func TestEstimateFetchesConvenience(t *testing.T) {
	meta := Meta{Table: "t", Column: "c", T: 100, N: 1000, I: 100}
	st := fitted(t, clusteredTrace(100, 10), meta, Options{})
	f, err := EstimateFetches(st, 50, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-50) > 3 {
		t.Errorf("EstimateFetches = %g, want ~50", f)
	}
}

// Property: estimates always land in the physical bounds [0, S*sigma*N].
func TestEstIOBoundsProperty(t *testing.T) {
	const pages, perPage = 500, 20
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n / 4}
	rng := rand.New(rand.NewSource(21))
	trace := make(lrusim.Trace, 0, n)
	for i := int64(0); i < n; i++ {
		trace = append(trace, storage.PageID(rng.Intn(pages)))
	}
	st, err := LRUFit(trace, meta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(bRaw uint16, sigmaRaw, sRaw uint8) bool {
		b := int64(bRaw)%3000 + 1
		sigma := float64(sigmaRaw) / 255
		s := float64(sRaw)/255*0.999 + 0.001
		est, err := EstIO(st, Input{B: b, Sigma: sigma, S: s}, Options{})
		if err != nil {
			return false
		}
		upper := s*sigma*float64(n) + 1e-9
		return est.F >= 0 && est.F <= upper && !math.IsNaN(est.F) && !math.IsInf(est.F, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LRUFit's C is always in [0,1] and FMin in [T, N] for arbitrary
// traces covering all pages.
func TestLRUFitInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pages := 20 + rng.Intn(200)
		perPage := 2 + rng.Intn(20)
		n := pages * perPage
		trace := make(lrusim.Trace, 0, n)
		// Guarantee every page appears at least once.
		for p := 0; p < pages; p++ {
			trace = append(trace, storage.PageID(p))
		}
		for len(trace) < n {
			trace = append(trace, storage.PageID(rng.Intn(pages)))
		}
		meta := Meta{Table: "t", Column: "c", T: int64(pages), N: int64(n), I: int64(1 + rng.Intn(n))}
		st, err := LRUFit(trace, meta, Options{})
		if err != nil {
			return false
		}
		if st.C < 0 || st.C > 1 {
			return false
		}
		return st.FMin >= int64(pages) && st.FMin <= int64(n) && st.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLRUFitSpacingAndFitterVariants(t *testing.T) {
	const pages, perPage = 1000, 20
	n := int64(pages * perPage)
	meta := Meta{Table: "t", Column: "c", T: pages, N: n, I: n}
	trace := roundRobinTrace(pages, perPage)
	for _, opt := range []Options{
		{Spacing: SpacingGeometric},
		{Fitter: FitterGreedy},
		{Fitter: FitterEqualSpacing},
		{Segments: 3},
		{Segments: 12},
	} {
		st, err := LRUFit(trace, meta, opt)
		if err != nil {
			t.Fatalf("LRUFit(%+v): %v", opt, err)
		}
		if err := st.Validate(); err != nil {
			t.Errorf("variant %+v invalid: %v", opt, err)
		}
	}
}

func TestEstIOEquationOneJump(t *testing.T) {
	// Equation 1 switches its correction on at φ = B/T ≥ 3σ, and nothing
	// phases it in: one more buffer page at the switch raises the estimate,
	// although by LRU's inclusion property the true fetch count cannot rise
	// with B. This is the paper's formula, kept as it is (EXPERIMENTS.md,
	// "Equation 1's jump"); the test pins where the jump sits and that it
	// is one. σ = 1/8 keeps 3σ exact in floating point, so the switch falls
	// exactly on B = 3σT.
	ds, err := datagen.GenerateDataset(datagen.Config{Name: "jump", N: 100_000, I: 2_000, R: 20, K: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{Table: "jump", Column: "key", T: ds.T, N: int64(len(ds.Keys)), I: 2_000}
	st := fitted(t, ds.Trace(), meta, Options{})
	const sigma = 0.125
	b := int64(3 * sigma * float64(st.T))
	if float64(b) != 3*sigma*float64(st.T) {
		t.Fatalf("3σT = %g is not a whole page count", 3*sigma*float64(st.T))
	}
	before, err := EstIO(st, Input{B: b - 1, Sigma: sigma, S: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	at, err := EstIO(st, Input{B: b, Sigma: sigma, S: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Nu != 0 || at.Nu != 1 {
		t.Fatalf("ν at B = %d, %d: %d, %d; want 0, 1", b-1, b, before.Nu, at.Nu)
	}
	if before.F != before.Base {
		t.Errorf("B = %d: F = %g, want the uncorrected σ·PF_B = %g", b-1, before.F, before.Base)
	}
	// One page moves PF_B by at most one curve slope, far less than the
	// correction the switch adds.
	if at.Correction <= 0 || at.F-before.F < 0.9*at.Correction {
		t.Errorf("F(%d) = %g, F(%d) = %g: want a jump of about the correction %g",
			b-1, before.F, b, at.F, at.Correction)
	}
	t.Logf("T = %d, C = %.4f: F(%d) = %.1f, F(%d) = %.1f (+%.0f%%)",
		st.T, st.C, b-1, before.F, b, at.F, 100*(at.F-before.F)/before.F)
}
