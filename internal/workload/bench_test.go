package workload

import (
	"math"
	"testing"
	"testing/quick"

	"epfis/internal/lrusim"
)

// legacyBufferSweep is the pre-fix implementation (accumulating float steps
// with a boundary fudge), kept only as the reference the regression test
// compares against.
func legacyBufferSweep(t int64, minAbs int64) []int {
	step := float64(t) * 0.05
	if step < 1 {
		step = 1
	}
	lo := math.Max(float64(minAbs), step)
	hi := 0.9 * float64(t)
	var out []int
	for b := lo; b <= hi+1e-9; b += step {
		out = append(out, int(math.Round(b)))
	}
	return out
}

func TestBufferSweepMatchesLegacyStepping(t *testing.T) {
	// The indexed stepping must reproduce the accumulated stepping on every
	// table size the experiments use: all GWL table sizes at every scale,
	// the synthetic sizes, and a property sweep over arbitrary shapes.
	// sameSweep compares point lists; at an exact .5 rounding boundary
	// (e.g. T=774: 300 + 5*38.7 = 493.5) the legacy accumulated drift chose
	// a side arbitrarily, so a ±1 difference there is the fix working as
	// intended, not a regression.
	sameSweep := func(tt, floor int64, got, want []int) (ok bool, detail string) {
		if len(got) != len(want) {
			return false, "length"
		}
		step := math.Max(float64(tt)*0.05, 1)
		lo := math.Max(float64(floor), step)
		for i := range got {
			if got[i] == want[i] {
				continue
			}
			v := lo + float64(i)*step
			tie := math.Abs(v-math.Floor(v)-0.5) < 1e-6
			if !tie || got[i]-want[i] > 1 || want[i]-got[i] > 1 {
				return false, "point"
			}
		}
		return true, ""
	}
	cases := []struct{ t, floor int64 }{
		{10_000, 300}, {774, 300}, {1093, 300}, {1945, 300}, {4857, 300},
		{100, 300}, {25_000, 300}, {25_000, 12}, {8, 1}, {1, 1},
		{96, 37}, {2_500, 30}, {250, 3},
	}
	for _, c := range cases {
		got, want := BufferSweep(c.t, c.floor), legacyBufferSweep(c.t, c.floor)
		if ok, detail := sameSweep(c.t, c.floor, got, want); !ok {
			t.Fatalf("T=%d floor=%d: %s mismatch: %v vs legacy %v", c.t, c.floor, detail, got, want)
		}
	}
	f := func(tRaw uint16, floorRaw uint16) bool {
		tt := int64(tRaw)%50_000 + 1
		floor := int64(floorRaw)%600 + 1
		ok, _ := sameSweep(tt, floor, BufferSweep(tt, floor), legacyBufferSweep(tt, floor))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestBufferSweepMonotoneWithinBounds(t *testing.T) {
	f := func(tRaw uint32) bool {
		tt := int64(tRaw)%1_000_000 + 1
		sweep := BufferSweep(tt, 300)
		for i, b := range sweep {
			if float64(b) > 0.9*float64(tt)+1 {
				return false
			}
			if i > 0 && b <= sweep[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// benchScans draws the paper's standard 200-scan mix on a mid-size dataset.
func benchScans(b *testing.B) (*Generator, []Scan) {
	b.Helper()
	ds := dataset(b, 100_000, 1_000, 0.2, 1)
	g, err := NewGenerator(ds, 7)
	if err != nil {
		b.Fatal(err)
	}
	return g, g.Mix(200, 0.5)
}

// BenchmarkMeasure200Scans is the paper's per-figure measurement workload:
// 200 partial scans read off one whole-trace Mattson pass.
func BenchmarkMeasure200Scans(b *testing.B) {
	g, scans := benchScans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Measure(g.ds, scans)
	}
}

// BenchmarkMeasure200ScansLegacy measures the same workload the way the
// pre-pooling code did — a fresh tree simulator, hash map, and histogram per
// scan — as the allocation baseline for the perf report.
func BenchmarkMeasure200ScansLegacy(b *testing.B) {
	g, scans := benchScans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]Measured, len(scans))
		for j, s := range scans {
			tr := g.ds.SliceTrace(s.Lo, s.Hi)
			out[j] = Measured{Scan: s, Curve: (lrusim.TreeSimulator{}).Run(tr).FetchCurve()}
		}
	}
}
