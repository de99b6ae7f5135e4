package lrusim

import (
	"fmt"
	"math/rand"
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
func windowMatchesAnalyze(s *Scratch, w *Windows, t Trace, lo, hi int) string {
	got, want := w.Curve(lo, hi), s.Analyze(t[lo:hi])
	if !slices.Equal(got.cumHits, want.cumHits) || got.cold != want.cold || got.total != want.total {
		return fmt.Sprintf("window [%d,%d) of %d: got cum=%v cold=%d total=%d, want cum=%v cold=%d total=%d",
			lo, hi, len(t), got.cumHits, got.cold, got.total, want.cumHits, want.cold, want.total)
	}
	return ""
}

func TestWindowsMatchAnalyzeProperty(t *testing.T) {
	s := NewScratch()
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
			if msg := windowMatchesAnalyze(s, w, trace, lh[0], lh[1]); msg != "" {
				t.Error(msg)
				return false
			}
		}
		// Analyze itself against the independent move-to-front oracle, so a
		// kernel fault shared by both sides cannot hide.
		return histogramsEqual(s.Run(trace), ListSimulator{}.Run(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestWindowsEmptyTrace(t *testing.T) {
	if msg := windowMatchesAnalyze(NewScratch(), NewWindows(nil), nil, 0, 0); msg != "" {
		t.Fatal(msg)
	}
}

func TestWindowsConcurrentCurves(t *testing.T) {
	// One index read by several goroutines at once (run under -race in CI).
	rng := rand.New(rand.NewSource(3))
	trace := clusteredTrace(rng, 3000, 300, 5)
	w := NewWindows(trace)
	bounds := make([][2]int, 32)
	wants := make([]*FetchCurve, len(bounds))
	for i := range bounds {
		lo := rng.Intn(len(trace))
		bounds[i] = [2]int{lo, lo + rng.Intn(len(trace)-lo+1)}
		wants[i] = NewScratch().Analyze(trace[bounds[i][0]:bounds[i][1]])
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
