package lrusim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"epfis/internal/storage"
)

// runsTrace repeats each drawn page a few times in a row, so most reuses hit
// the stack top and windows often start or end inside a run.
func runsTrace(rng *rand.Rand, n, pages int) Trace {
	t := make(Trace, 0, n)
	for len(t) < n {
		pg := storage.PageID(rng.Intn(pages))
		for k := 1 + rng.Intn(4); k > 0 && len(t) < n; k-- {
			t = append(t, pg)
		}
	}
	return t
}

// windowMatchesAnalyze reports how the curve of t[lo:hi] read from w differs
// from a separate stack pass over the sliced trace, or "" when the two are
// bit-identical: same cumHits (length included), cold and total.
func windowMatchesAnalyze(w *Windows, t Trace, lo, hi int) string {
	got, want := w.Curve(lo, hi), Analyze(t[lo:hi])
	if !slices.Equal(got.cumHits, want.cumHits) || got.cold != want.cold || got.total != want.total {
		return fmt.Sprintf("window [%d,%d) of %d: got cum=%v cold=%d total=%d, want cum=%v cold=%d total=%d",
			lo, hi, len(t), got.cumHits, got.cold, got.total, want.cumHits, want.cold, want.total)
	}
	return ""
}

func TestWindowsMatchAnalyzeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		pages := 1 + rng.Intn(60)
		var trace Trace
		switch rng.Intn(4) {
		case 0:
			trace = randomTrace(rng, n, pages)
		case 1:
			trace = clusteredTrace(rng, n, pages, 1+rng.Intn(6))
		case 2:
			trace = sparseTrace(rng, n, pages) // map remap path
		default:
			trace = runsTrace(rng, n, pages)
		}
		w := NewWindows(trace)
		// The whole trace, both ends pinned, every length-1 window, the
		// empty window, then random windows.
		windows := [][2]int{{0, n}, {0, rng.Intn(n + 1)}, {rng.Intn(n + 1), n}, {n / 2, n / 2}}
		for i := 0; i < n; i++ {
			windows = append(windows, [2]int{i, i + 1})
		}
		for k := 0; k < 40; k++ {
			lo := rng.Intn(n + 1)
			windows = append(windows, [2]int{lo, lo + rng.Intn(n-lo+1)})
		}
		for _, lh := range windows {
			if msg := windowMatchesAnalyze(w, trace, lh[0], lh[1]); msg != "" {
				t.Error(msg)
				return false
			}
		}
		// The stack pass itself against the independent move-to-front
		// oracle, so a kernel fault shared by both sides cannot hide.
		return histogramsEqual(accumRun(trace), ListSimulator{}.Run(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestWindowsEmptyTrace(t *testing.T) {
	if msg := windowMatchesAnalyze(NewWindows(nil), nil, 0, 0); msg != "" {
		t.Fatal(msg)
	}
}

func TestWindowsPartsMatchSerialProperty(t *testing.T) {
	// The split pass into 1..8 contiguous chunks must record exactly what
	// one feed of the whole trace records: every position's previous
	// reference and stack distance, bit for bit, and the same largest
	// distance. Then every window's curve is the serial index's too.
	for name, shape := range splitShapes {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				trace := shape(rng, 1+rng.Intn(600))
				n := len(trace)
				serial := &Windows{rec: make([]reuse, n)}
				a := NewAccum()
				a.feed(trace, serial.rec)
				serial.maxDist = int32(a.maxDist)
				for parts := 1; parts <= 8; parts++ {
					split := &Windows{rec: make([]reuse, n)}
					b := analyzeParts(trace, split.rec, parts)
					split.maxDist = int32(b.maxDist)
					accumPool.Put(b)
					if !slices.Equal(split.rec, serial.rec) || split.maxDist != serial.maxDist {
						t.Logf("seed %d: %d parts of %d references record differently from one feed", seed, parts, n)
						return false
					}
					for k := 0; k < 8; k++ {
						lo := rng.Intn(n + 1)
						hi := lo + rng.Intn(n-lo+1)
						got, want := split.Curve(lo, hi), serial.Curve(lo, hi)
						if !reflect.DeepEqual(got, want) {
							t.Logf("seed %d: %d parts, window [%d,%d): curve diverges", seed, parts, lo, hi)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestWindowsConcurrentCurves(t *testing.T) {
	// One index read by several goroutines at once (run under -race in CI).
	// The trace is long enough for NewWindows to split its pass whenever
	// GOMAXPROCS > 1.
	rng := rand.New(rand.NewSource(3))
	trace := clusteredTrace(rng, 3*minChunkRefs+1000, 300, 5)
	w := NewWindows(trace)
	bounds := make([][2]int, 32)
	wants := make([]*FetchCurve, len(bounds))
	for i := range bounds {
		lo := rng.Intn(len(trace))
		bounds[i] = [2]int{lo, lo + rng.Intn(len(trace)-lo+1)}
		wants[i] = Analyze(trace[bounds[i][0]:bounds[i][1]])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, b := range bounds {
				got := w.Curve(b[0], b[1])
				if !slices.Equal(got.cumHits, wants[i].cumHits) || got.cold != wants[i].cold {
					t.Errorf("window %v diverged under concurrent reads", b)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkNewWindowsSplit compares the serial window pass with the split
// one (max(2, GOMAXPROCS) chunks) on the traces BenchmarkAnalyzeSplit uses.
// The split records every reference besides merging, so on two sequential
// passes over n/2 pages, where every page of the later chunk needs Merge's
// fix-up and record patch, it loses as Analyze's does.
func BenchmarkNewWindowsSplit(b *testing.B) {
	split := max(2, runtime.GOMAXPROCS(0))
	for _, c := range splitBenchTraces() {
		rec := make([]reuse, len(c.trace))
		for _, parts := range []int{1, split} {
			mode := "serial"
			if parts > 1 {
				mode = "split"
			}
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					accumPool.Put(analyzeParts(c.trace, rec, parts))
				}
			})
		}
	}
}
