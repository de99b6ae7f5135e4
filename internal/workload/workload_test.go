package workload

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"epfis/internal/datagen"
	"epfis/internal/lrusim"
)

func dataset(t testing.TB, n, i int64, k float64, seed int64) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.GenerateDataset(datagen.Config{
		Name: "w", N: n, I: i, R: 20, Theta: 0, K: k, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewGeneratorEmpty(t *testing.T) {
	ds := &datagen.Dataset{}
	if _, err := NewGenerator(ds, 1); err != ErrEmptyDataset {
		t.Errorf("err = %v", err)
	}
}

func TestScanAlignsWithKeyBoundaries(t *testing.T) {
	ds := dataset(t, 10_000, 100, 0.5, 1)
	g, err := NewGenerator(ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		var s Scan
		if trial%2 == 0 {
			s = g.Small()
		} else {
			s = g.Large()
		}
		if s.Lo < 0 || s.Hi > len(ds.Keys) || s.Lo >= s.Hi {
			t.Fatalf("scan out of range: %+v", s)
		}
		// Boundary alignment: entry before Lo (if any) has a smaller key;
		// entry at Hi (if any) has a larger key.
		if s.Lo > 0 && ds.Keys[s.Lo-1] == ds.Keys[s.Lo] {
			t.Fatalf("scan starts mid-key: %+v", s)
		}
		if s.Hi < len(ds.Keys) && ds.Keys[s.Hi-1] == ds.Keys[s.Hi] {
			t.Fatalf("scan stops mid-key: %+v", s)
		}
		if ds.Keys[s.Lo] != s.StartKey || ds.Keys[s.Hi-1] != s.StopKey {
			t.Fatalf("key bounds wrong: %+v", s)
		}
		if got := float64(s.Records()) / float64(len(ds.Keys)); math.Abs(got-s.Sigma) > 1e-12 {
			t.Fatalf("sigma mismatch: %+v", s)
		}
	}
}

func TestSmallAndLargeScanSizes(t *testing.T) {
	ds := dataset(t, 20_000, 200, 0.5, 1)
	g, err := NewGenerator(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if s := g.Small(); s.Sigma > 0.21+1.0/200 {
			t.Errorf("small scan sigma = %g", s.Sigma)
		}
		// Large scans request >= 0.2 of records; key granularity can only
		// push the realized fraction up.
		if s := g.Large(); s.Sigma < 0.2 {
			t.Errorf("large scan sigma = %g", s.Sigma)
		}
	}
}

func TestFullScan(t *testing.T) {
	ds := dataset(t, 5_000, 50, 0.2, 1)
	g, err := NewGenerator(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Full()
	if s.Lo != 0 || s.Hi != 5000 || s.Sigma != 1 {
		t.Errorf("full scan = %+v", s)
	}
}

func TestMixComposition(t *testing.T) {
	ds := dataset(t, 20_000, 200, 0.5, 1)
	g, err := NewGenerator(ds, 11)
	if err != nil {
		t.Fatal(err)
	}
	scans := g.Mix(200, 0.5)
	if len(scans) != 200 {
		t.Fatalf("Mix returned %d scans", len(scans))
	}
	small := 0
	for _, s := range scans {
		if s.Sigma <= 0.2 {
			small++
		}
	}
	// ~half small; allow generous binomial slack.
	if small < 60 || small > 140 {
		t.Errorf("small scans = %d of 200", small)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	ds := dataset(t, 10_000, 100, 0.3, 1)
	g1, _ := NewGenerator(ds, 42)
	g2, _ := NewGenerator(ds, 42)
	a := g1.Mix(50, 0.5)
	b := g2.Mix(50, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scan %d differs", i)
		}
	}
}

func TestMeasureMatchesDirectSimulation(t *testing.T) {
	ds := dataset(t, 8_000, 80, 1, 5)
	g, err := NewGenerator(ds, 9)
	if err != nil {
		t.Fatal(err)
	}
	scans := g.Mix(10, 0.5)
	measured := Measure(ds, scans)
	for i, m := range measured {
		trace := ds.SliceTrace(m.Scan.Lo, m.Scan.Hi)
		for _, b := range []int{1, 7, 50} {
			direct, err := lrusim.DirectFetches(trace, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Curve.Fetches(b); got != direct {
				t.Errorf("scan %d B=%d: %d vs direct %d", i, b, got, direct)
			}
		}
	}
}

func TestErrorMetric(t *testing.T) {
	var m ErrorMetric
	m.Add(10, 8)
	m.Add(6, 8)
	rel, err := m.Relative()
	if err != nil {
		t.Fatal(err)
	}
	if rel != 0 {
		t.Errorf("Relative = %g, want 0 (errors cancel in aggregate)", rel)
	}
	m.Add(24, 8)
	rel, err = m.Relative()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel-(40.0-24.0)/24.0) > 1e-12 {
		t.Errorf("Relative = %g", rel)
	}
	pct, err := m.Percent()
	if err != nil || math.Abs(pct-rel*100) > 1e-12 {
		t.Errorf("Percent = %g, %v", pct, err)
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
}

func TestErrorMetricUndefined(t *testing.T) {
	var m ErrorMetric
	if _, err := m.Relative(); err == nil {
		t.Error("empty metric defined")
	}
	m.Add(0, 0)
	if _, err := m.Relative(); err == nil {
		t.Error("zero-actual metric defined")
	}
}

func TestBufferSweepPaperShape(t *testing.T) {
	// Paper: T = 10000, floor 300: 0.05T = 500 > 300, so 500..9000 step 500.
	sweep := BufferSweep(10_000, 300)
	if len(sweep) != 18 {
		t.Fatalf("sweep has %d points: %v", len(sweep), sweep)
	}
	if sweep[0] != 500 || sweep[len(sweep)-1] != 9000 {
		t.Errorf("sweep endpoints %d, %d", sweep[0], sweep[len(sweep)-1])
	}
	// Small table with floor 300: floor dominates.
	sweep = BufferSweep(774, 300)
	if len(sweep) == 0 || sweep[0] != 300 {
		t.Errorf("CMAC sweep = %v", sweep)
	}
	if last := sweep[len(sweep)-1]; float64(last) > 0.9*774+1 {
		t.Errorf("sweep exceeds 0.9T: %d", last)
	}
	// Floor beyond 0.9T: empty.
	if sweep := BufferSweep(100, 300); len(sweep) != 0 {
		t.Errorf("expected empty sweep, got %v", sweep)
	}
}

// Property: generated scans always contain at least the requested fraction
// of records (key alignment rounds up).
func TestScanCoversRequestedFractionProperty(t *testing.T) {
	ds := dataset(t, 10_000, 100, 0.5, 2)
	g, err := NewGenerator(ds, 13)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rRaw uint8) bool {
		r := float64(rRaw) / 255
		s := g.scanFor(r)
		want := int(math.Ceil(r * float64(len(ds.Keys))))
		if want < 1 {
			want = 1
		}
		// The scan can fall short only if it ran into the end of the keys;
		// by construction of the start-key cutoff it must not.
		return s.Records() >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// curveMismatch reports the first buffer size in 1..t+1 at which two fetch
// curves differ, or 0 when they agree everywhere, in A and N included.
func curveMismatch(a, b *lrusim.FetchCurve, t int64) int {
	for bs := 1; bs <= int(t)+1; bs++ {
		if a.Fetches(bs) != b.Fetches(bs) {
			return bs
		}
	}
	if a.Accesses() != b.Accesses() || a.Total() != b.Total() {
		return -1
	}
	return 0
}

func TestMeasureMatchesPerScanAnalyze(t *testing.T) {
	// Every curve read off the whole-trace window index must equal a
	// separate stack pass over the scan's sliced trace at every buffer size
	// (the full scan included), in scan order.
	ds := dataset(t, 20_000, 200, 0.7, 9)
	g, err := NewGenerator(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	scans := append(g.Mix(64, 0.5), g.Full())
	got := Measure(ds, scans)
	if len(got) != len(scans) {
		t.Fatalf("Measure returned %d curves for %d scans", len(got), len(scans))
	}
	for i, m := range got {
		if m.Scan != scans[i] {
			t.Fatalf("scan %d order scrambled", i)
		}
		want := lrusim.Analyze(ds.SliceTrace(scans[i].Lo, scans[i].Hi))
		if b := curveMismatch(m.Curve, want, ds.T); b != 0 {
			t.Fatalf("scan %d [%d,%d): curves differ at B=%d", i, scans[i].Lo, scans[i].Hi, b)
		}
	}
}

func TestMeasureConcurrentCallsAgree(t *testing.T) {
	// Measure draws its simulators from shared pools and fans its filters
	// out; concurrent calls on one dataset must not interfere (run under
	// -race in CI). The trace is long enough for the window pass to split
	// and the filters to fan out whenever GOMAXPROCS > 1.
	ds := dataset(t, 3*minParallelRefs, 100, 0.4, 3)
	g, err := NewGenerator(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	scans := g.Mix(40, 0.5)
	want := make([]Measured, len(scans))
	for i, s := range scans {
		want[i] = Measured{Scan: s, Curve: lrusim.Analyze(ds.SliceTrace(s.Lo, s.Hi))}
	}
	const callers = 4
	results := make([][]Measured, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = Measure(ds, scans)
		}(c)
	}
	wg.Wait()
	for c, got := range results {
		for i := range want {
			if got[i].Scan != want[i].Scan {
				t.Fatalf("caller %d scan %d order scrambled", c, i)
			}
			if b := curveMismatch(got[i].Curve, want[i].Curve, ds.T); b != 0 {
				t.Fatalf("caller %d scan %d: curves differ at B=%d", c, i, b)
			}
		}
	}
}

func TestMeasureNoScans(t *testing.T) {
	if got := Measure(dataset(t, 1_000, 10, 1, 1), nil); len(got) != 0 {
		t.Fatalf("Measure(nil) = %d curves", len(got))
	}
}
