package lrusim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"epfis/internal/storage"
)

// feedInSplits feeds the trace through a into randomly sized batches,
// exercising shrinking and growing batch lengths including empty ones.
func feedInSplits(rng *rand.Rand, a *Accum, t Trace) {
	for len(t) > 0 {
		k := rng.Intn(len(t) + 1)
		if rng.Intn(8) == 0 {
			a.Feed(nil) // empty batches must be no-ops
		}
		a.Feed(t[:k])
		t = t[k:]
	}
}

// accumMatchesOracle checks the accumulated state against the move-to-front
// oracle over the full trace, bit for bit: identical histogram, identical
// F(B) for every informative B, identical A and N.
func accumMatchesOracle(t *testing.T, a *Accum, full Trace) {
	t.Helper()
	want := ListSimulator{}.Run(full)
	if got := a.Histogram(); !histogramsEqual(got, want) {
		t.Fatalf("histogram diverged: got cold=%d total=%d, want cold=%d total=%d",
			got.Cold, got.Total, want.Cold, want.Total)
	}
	wc := want.FetchCurve()
	gc := a.Curve()
	hi := int(wc.Accesses()) + 2
	for b := 1; b <= hi; b++ {
		if gc.Fetches(b) != wc.Fetches(b) {
			t.Fatalf("F(%d): accum %d, oracle %d", b, gc.Fetches(b), wc.Fetches(b))
		}
	}
	if gc.Accesses() != wc.Accesses() || gc.Total() != wc.Total() {
		t.Fatalf("A/N diverged: accum (%d,%d), oracle (%d,%d)",
			gc.Accesses(), gc.Total(), wc.Accesses(), wc.Total())
	}
}

// sparseTrace spreads page ids far beyond the trace length so the accumulator
// must take (or migrate to) the map remap path.
func sparseTrace(rng *rand.Rand, n, pages int) Trace {
	t := make(Trace, n)
	for i := range t {
		t[i] = storage.PageID(rng.Intn(pages)) * 1_048_573 // large prime stride
	}
	return t
}

func pickTrace(rng *rand.Rand, n, pages int) Trace {
	switch rng.Intn(3) {
	case 0:
		return randomTrace(rng, n, pages)
	case 1:
		return clusteredTrace(rng, n, pages, 1+rng.Intn(6))
	default:
		return sparseTrace(rng, n, pages)
	}
}

func TestAccumFeedMatchesScratchProperty(t *testing.T) {
	// One trace, arbitrary batch splits: the incremental pass must be
	// bit-identical to the oracle over the concatenation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		full := pickTrace(rng, 1+rng.Intn(600), 1+rng.Intn(60))
		a := NewAccum()
		feedInSplits(rng, a, full)
		return histogramsEqual(a.Histogram(), ListSimulator{}.Run(full))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAccumMergeMatchesConcatenationProperty(t *testing.T) {
	// Per-shard accumulators merged in order must be bit-identical to one
	// accumulator over the concatenated stream — across dense, clustered,
	// and sparse id shapes, with page-id overlap between shards.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(5)
		pages := 1 + rng.Intn(50)
		var full Trace
		accs := make([]*Accum, shards)
		for i := range accs {
			part := pickTrace(rng, rng.Intn(300), pages)
			full = append(full, part...)
			accs[i] = NewAccum()
			feedInSplits(rng, accs[i], part)
		}
		merged := accs[0]
		for _, b := range accs[1:] {
			merged.Merge(b)
		}
		return histogramsEqual(merged.Histogram(), ListSimulator{}.Run(full))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAccumMergeThenKeepFeeding(t *testing.T) {
	// A merged accumulator must remain a valid stream prefix: further Feeds
	// and further Merges on top of it stay exact.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p1 := pickTrace(rng, 200, 30)
		p2 := pickTrace(rng, 150, 30)
		p3 := pickTrace(rng, 100, 30)
		a, b := NewAccum(), NewAccum()
		a.Feed(p1)
		b.Feed(p2)
		a.Merge(b)
		a.Feed(p3)          // feeding after a merge must stay exact
		a.Merge(NewAccum()) // merging an empty accumulator is a no-op
		concat := append(append(p1.Clone(), p2...), p3...)
		accumMatchesOracle(t, a, concat)
	}
}

func TestAccumMixedRemapMerge(t *testing.T) {
	// Slice-path accumulator merged with map-path accumulator (and the
	// reverse), including ids present on both sides.
	dense := tr(0, 1, 2, 3, 0, 1, 2, 3, 2, 1)
	sparse := Trace{1 << 30, 1, 1 << 30, 1 << 20, 3, 1 << 20}
	for _, order := range [][2]Trace{{dense, sparse}, {sparse, dense}} {
		a, b := NewAccum(), NewAccum()
		a.Feed(order[0])
		b.Feed(order[1])
		a.Merge(b)
		concat := append(order[0].Clone(), order[1]...)
		accumMatchesOracle(t, a, concat)
	}
}

func TestAccumCurveMidStream(t *testing.T) {
	// Curve() at every batch boundary must equal the oracle over the
	// prefix consumed so far, and reading it must not disturb accumulation.
	rng := rand.New(rand.NewSource(3))
	full := clusteredTrace(rng, 1200, 80, 4)
	a := NewAccum()
	for off := 0; off < len(full); {
		k := 1 + rng.Intn(200)
		if off+k > len(full) {
			k = len(full) - off
		}
		a.Feed(full[off : off+k])
		off += k
		want := ListSimulator{}.Run(full[:off]).FetchCurve()
		got := a.Curve()
		for b := 1; b <= 90; b++ {
			if got.Fetches(b) != want.Fetches(b) {
				t.Fatalf("prefix %d F(%d): accum %d, oracle %d", off, b, got.Fetches(b), want.Fetches(b))
			}
		}
	}
}

func TestAccumResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewAccum()
	for _, n := range []int{1000, 3, 700, 1, 1200} {
		a.Reset()
		full := pickTrace(rng, n, 1+n/10)
		feedInSplits(rng, a, full)
		accumMatchesOracle(t, a, full)
	}
}

func TestAccumReuseShrinkThenGrow(t *testing.T) {
	// Deterministic worst case for stale state: a large trace, then a tiny
	// one, then large again, with overlapping page ids, on one Accum.
	rng := rand.New(rand.NewSource(5))
	a := NewAccum()
	for _, n := range []int{2000, 3, 1500, 1, 2500} {
		trace := clusteredTrace(rng, n, 1+n/10, 3)
		a.Reset()
		a.Feed(trace)
		if got, want := a.Histogram(), (ListSimulator{}).Run(trace); !histogramsEqual(got, want) {
			t.Fatalf("n=%d: accum diverged after reuse", n)
		}
	}
}

func TestAccumSparsePageIDs(t *testing.T) {
	// Page ids far beyond the trace length force the map remap path; mixing
	// sparse and dense traces on one Accum must switch paths cleanly.
	a := NewAccum()
	sparse := Trace{1 << 30, 7, 1 << 30, 1 << 20, 7, 1 << 20, 1 << 30}
	dense := tr(0, 1, 2, 0, 1, 2)
	for i := 0; i < 3; i++ {
		for _, trace := range []Trace{sparse, dense} {
			a.Reset()
			a.Feed(trace)
			if got, want := a.Histogram(), (ListSimulator{}).Run(trace); !histogramsEqual(got, want) {
				t.Fatalf("iter %d: trace %v diverged", i, trace)
			}
		}
	}
}

func TestAccumReuseMatchesDirectSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewAccum()
	for trial := 0; trial < 10; trial++ {
		pages := 5 + rng.Intn(50)
		trace := clusteredTrace(rng, 300, pages, 1+rng.Intn(6))
		a.Reset()
		a.Feed(trace)
		c := a.Curve()
		for _, b := range []int{1, 2, pages / 2, pages + 5} {
			if b < 1 {
				b = 1
			}
			direct, err := DirectFetches(trace, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Fetches(b); got != direct {
				t.Fatalf("trial %d B=%d: accum %d, direct %d", trial, b, got, direct)
			}
		}
	}
}

func TestAccumResetReturnsToSliceRemap(t *testing.T) {
	// The ingest shape: an unclustered stream over T = 2048 pages fed in
	// 4096-reference batches, one window per Reset. Its ids are dense for
	// the batch, so the slice remap must hold in every window, the first
	// included. A truly sparse stream still migrates to the map, with exact
	// curves, and the next Reset comes back to the slice path.
	rng := rand.New(rand.NewSource(13))
	a := NewAccum()
	for window := 0; window < 3; window++ {
		a.Reset()
		full := randomTrace(rng, 4*4096, 2048)
		for off := 0; off < len(full); off += 4096 {
			a.Feed(full[off : off+4096])
			if a.remap != nil {
				t.Fatalf("window %d: dense stream moved to the map remap after %d refs", window, off+4096)
			}
		}
		accumMatchesOracle(t, a, full)

		a.Reset()
		sparse := sparseTrace(rng, 4096, 2048)
		feedInSplits(rng, a, sparse)
		if a.remap == nil {
			t.Fatalf("window %d: sparse stream stayed on the slice remap", window)
		}
		accumMatchesOracle(t, a, sparse)
	}
	a.Reset()
	if a.remap != nil {
		t.Fatal("Reset kept the map remap")
	}
}

func TestAccumRunAcrossSplitAndMerge(t *testing.T) {
	// The kernel leaves a stack-top reuse's marker at the start of its run.
	// Split the stream inside a run of one page, so a's tail run continues
	// into b's head, and check Feed splits and Merge at every cut.
	full := tr(1, 2, 3, 3, 3, 3, 3, 1, 3, 3, 2, 2, 4, 3, 1, 1)
	for cut := 0; cut <= len(full); cut++ {
		a, b := NewAccum(), NewAccum()
		a.Feed(full[:cut])
		a.Feed(full[cut:])
		accumMatchesOracle(t, a, full)

		a.Reset()
		a.Feed(full[:cut])
		b.Feed(full[cut:])
		a.Merge(b)
		accumMatchesOracle(t, a, full)
		// The merged stream must stay exact as the run goes on.
		a.Feed(tr(1, 1, 3, 2, 2))
		accumMatchesOracle(t, a, append(full.Clone(), tr(1, 1, 3, 2, 2)...))
	}
}

func TestAccumEmptyAndEdge(t *testing.T) {
	a := NewAccum()
	if c := a.Curve(); c.Total() != 0 || c.Fetches(1) != 0 {
		t.Error("empty accumulator curve wrong")
	}
	a.Feed(tr(5))
	if c := a.Curve(); c.Fetches(1) != 1 || c.Accesses() != 1 {
		t.Error("single-reference curve wrong")
	}
	if got := a.MaxPageID(); got != 5 {
		t.Errorf("MaxPageID = %d, want 5", got)
	}
	b := NewAccum()
	b.Merge(a) // merge into empty
	accumMatchesOracle(t, b, tr(5))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-merge did not panic")
			}
		}()
		b.Merge(b)
	}()
}

func TestAccumConcurrentShards(t *testing.T) {
	// Shard feeding from separate goroutines (one Accum each, as the ingest
	// pipeline does) then a serial merge: exercised under -race by make race.
	rng := rand.New(rand.NewSource(17))
	shards := make([]Trace, 8)
	var full Trace
	for i := range shards {
		shards[i] = clusteredTrace(rng, 500, 60, 3)
	}
	for _, sh := range shards {
		full = append(full, sh...)
	}
	accs := make([]*Accum, len(shards))
	done := make(chan int, len(shards))
	for i := range shards {
		go func(i int) {
			accs[i] = NewAccum()
			r := rand.New(rand.NewSource(int64(i)))
			feedInSplits(r, accs[i], shards[i])
			done <- i
		}(i)
	}
	for range shards {
		<-done
	}
	merged := accs[0]
	for _, b := range accs[1:] {
		merged.Merge(b)
	}
	accumMatchesOracle(t, merged, full)
}

func TestAccumFeedSteadyStateAllocs(t *testing.T) {
	// Amortized allocs/op over a long warm stream: the committed budget is
	// <= 2 (as for a one-shot Analyze); steady state is zero with occasional
	// capacity doublings.
	rng := rand.New(rand.NewSource(2))
	a := NewAccum()
	a.Feed(clusteredTrace(rng, 50_000, 2_000, 10)) // warm up capacities
	batch := clusteredTrace(rng, 512, 2_000, 10)
	avg := testing.AllocsPerRun(100, func() { a.Feed(batch) })
	if avg > 2 {
		t.Errorf("Feed allocs/op = %.1f, want <= 2", avg)
	}
}

// BenchmarkAccumFeed measures the incremental path per 512-reference batch on
// the same clustered shape as BenchmarkAnalyze; divide ns/op by 512
// for ns/ref.
func BenchmarkAccumFeed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := clusteredTrace(rng, 512, 2_000, 40)
	a := NewAccum()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Total() > 4<<20 {
			b.StopTimer()
			a.Reset()
			b.StartTimer()
		}
		a.Feed(batch)
	}
}

// BenchmarkAccumMerge measures merging a 100k-reference shard into a
// 100k-reference base (fresh copies per iteration, timer paused for setup).
func BenchmarkAccumMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t1 := clusteredTrace(rng, 100_000, 2_000, 40)
	t2 := clusteredTrace(rng, 100_000, 2_000, 40)
	shard := NewAccum()
	shard.Feed(t2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := NewAccum()
		base.Feed(t1)
		b.StartTimer()
		base.Merge(shard)
	}
}
