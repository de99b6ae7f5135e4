package lrusim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"epfis/internal/buffer"
	"epfis/internal/storage"
)

func tr(ids ...int) Trace {
	t := make(Trace, len(ids))
	for i, id := range ids {
		t[i] = storage.PageID(id)
	}
	return t
}

func randomTrace(rng *rand.Rand, n, pages int) Trace {
	t := make(Trace, n)
	for i := range t {
		t[i] = storage.PageID(rng.Intn(pages))
	}
	return t
}

// clusteredTrace mimics an index scan over a partly clustered table: page
// numbers drift forward with local jitter, producing re-references at small
// stack distances.
func clusteredTrace(rng *rand.Rand, n, pages, jitter int) Trace {
	t := make(Trace, n)
	for i := range t {
		base := i * pages / n
		p := base + rng.Intn(2*jitter+1) - jitter
		if p < 0 {
			p = 0
		}
		if p >= pages {
			p = pages - 1
		}
		t[i] = storage.PageID(p)
	}
	return t
}

// ListSimulator is the naive oracle the stack pass is tested against: a
// move-to-front doubly linked list plus a hash index (the paper's literal
// construction), O(n * avg depth). The hash table answers membership and the
// list walk yields the stack distance.
type ListSimulator struct{}

type listNode struct {
	page       storage.PageID
	prev, next *listNode
}

// Run consumes the trace and returns its histogram.
func (ListSimulator) Run(t Trace) *Histogram {
	h := &Histogram{Total: int64(len(t))}
	index := make(map[storage.PageID]*listNode, 1024)
	var head *listNode
	maxDepth := 0
	counts := make([]int64, 1, 1024)
	for _, pg := range t {
		if node, ok := index[pg]; ok {
			// Walk from the head to find the node's depth (1-based).
			d := 1
			for cur := head; cur != node; cur = cur.next {
				d++
			}
			for len(counts) <= d {
				counts = append(counts, 0)
			}
			counts[d]++
			if d > maxDepth {
				maxDepth = d
			}
			// Move to front.
			if head != node {
				if node.prev != nil {
					node.prev.next = node.next
				}
				if node.next != nil {
					node.next.prev = node.prev
				}
				node.prev = nil
				node.next = head
				if head != nil {
					head.prev = node
				}
				head = node
			}
		} else {
			h.Cold++
			node := &listNode{page: pg, next: head}
			if head != nil {
				head.prev = node
			}
			head = node
			index[pg] = node
		}
	}
	h.Counts = counts
	return h
}

// histogramsEqual compares two histograms up to trailing zero counts.
func histogramsEqual(a, b *Histogram) bool {
	if a.Cold != b.Cold || a.Total != b.Total {
		return false
	}
	n := len(a.Counts)
	if len(b.Counts) > n {
		n = len(b.Counts)
	}
	at := func(h *Histogram, d int) int64 {
		if d < len(h.Counts) {
			return h.Counts[d]
		}
		return 0
	}
	for d := 0; d < n; d++ {
		if at(a, d) != at(b, d) {
			return false
		}
	}
	return true
}

// accumRun is the stack pass as a histogram function: one Feed of the whole
// trace into a fresh Accum.
func accumRun(t Trace) *Histogram {
	a := NewAccum()
	a.Feed(t)
	return a.Histogram()
}

// engines are the histogram producers every fixed-trace case runs through:
// the oracle and the stack pass.
func engines() map[string]func(Trace) *Histogram {
	return map[string]func(Trace) *Histogram{"list": ListSimulator{}.Run, "accum": accumRun}
}

func TestEmptyTrace(t *testing.T) {
	for name, run := range engines() {
		h := run(nil)
		if h.Cold != 0 || h.Total != 0 {
			t.Errorf("%s: empty trace histogram = %+v", name, h)
		}
		c := h.FetchCurve()
		if c.Fetches(1) != 0 || c.Fetches(100) != 0 {
			t.Errorf("%s: empty trace fetches != 0", name)
		}
	}
}

func TestSingleReference(t *testing.T) {
	for name, run := range engines() {
		c := run(tr(5)).FetchCurve()
		if c.Fetches(1) != 1 || c.Accesses() != 1 || c.Total() != 1 {
			t.Errorf("%s: single ref curve wrong", name)
		}
	}
}

func TestRepeatedSamePage(t *testing.T) {
	for name, run := range engines() {
		c := run(tr(3, 3, 3, 3)).FetchCurve()
		if got := c.Fetches(1); got != 1 {
			t.Errorf("%s: F(1) = %d, want 1", name, got)
		}
	}
}

func TestKnownStackDistances(t *testing.T) {
	// Trace: 1 2 3 1 2 3.
	// Second occurrences each have stack distance 3.
	for name, run := range engines() {
		h := run(tr(1, 2, 3, 1, 2, 3))
		if h.Cold != 3 {
			t.Errorf("%s: cold = %d, want 3", name, h.Cold)
		}
		if len(h.Counts) <= 3 || h.Counts[3] != 3 {
			t.Errorf("%s: counts = %v, want three at distance 3", name, h.Counts)
		}
		c := h.FetchCurve()
		// B=3 caches everything: 3 fetches. B=2: all re-refs miss: 6.
		if got := c.Fetches(3); got != 3 {
			t.Errorf("%s: F(3) = %d, want 3", name, got)
		}
		if got := c.Fetches(2); got != 6 {
			t.Errorf("%s: F(2) = %d, want 6", name, got)
		}
	}
}

func TestSequentialScanIndependentOfBuffer(t *testing.T) {
	// Paper §2: a clustered scan has F == A for every B.
	trace := make(Trace, 0, 300)
	for p := 0; p < 100; p++ {
		for r := 0; r < 3; r++ {
			trace = append(trace, storage.PageID(p))
		}
	}
	for name, run := range engines() {
		c := run(trace).FetchCurve()
		for _, b := range []int{1, 2, 10, 100, 1000} {
			if got := c.Fetches(b); got != 100 {
				t.Errorf("%s: clustered scan F(%d) = %d, want 100", name, b, got)
			}
		}
	}
}

func TestWorstCaseUnclustered(t *testing.T) {
	// Each new record on a page evicted long ago: with B=1 every reference
	// after a page switch fetches; interleave 2 pages fully.
	trace := tr(0, 1, 0, 1, 0, 1)
	for name, run := range engines() {
		c := run(trace).FetchCurve()
		if got := c.Fetches(1); got != 6 {
			t.Errorf("%s: F(1) = %d, want 6 (every ref misses)", name, got)
		}
		if got := c.Fetches(2); got != 2 {
			t.Errorf("%s: F(2) = %d, want 2", name, got)
		}
	}
}

func TestSimulatorsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		pages := 1 + rng.Intn(40)
		var trace Trace
		if rng.Intn(2) == 0 {
			trace = randomTrace(rng, n, pages)
		} else {
			trace = clusteredTrace(rng, n, pages, 1+rng.Intn(5))
		}
		ha := ListSimulator{}.Run(trace)
		cb := Analyze(trace)
		if ha.Cold != cb.Accesses() || ha.Total != cb.Total() {
			return false
		}
		ca := ha.FetchCurve()
		for b := 1; b <= pages+2; b++ {
			if ca.Fetches(b) != cb.Fetches(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeMatchesListOracleProperty(t *testing.T) {
	// One Accum reused through Reset across every quick iteration, with
	// trace sizes and page counts varying each time — the reuse-across-sizes
	// regression the pooled Analyze must survive — and Analyze's curve
	// against the oracle's.
	a := NewAccum()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(600)
		pages := 1 + rng.Intn(60)
		var trace Trace
		if rng.Intn(2) == 0 {
			trace = randomTrace(rng, n, pages)
		} else {
			trace = clusteredTrace(rng, n, pages, 1+rng.Intn(6))
		}
		hList := ListSimulator{}.Run(trace)
		a.Reset()
		a.Feed(trace)
		if !histogramsEqual(a.Histogram(), hList) {
			return false
		}
		got, want := Analyze(trace), hList.FetchCurve()
		for b := 1; b <= pages+2; b++ {
			if got.Fetches(b) != want.Fetches(b) {
				return false
			}
		}
		return got.Accesses() == want.Accesses() && got.Total() == want.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// splitShapes are the trace shapes the split pass is checked on, each a
// generator of a trace of about n references.
var splitShapes = map[string]func(rng *rand.Rand, n int) Trace{
	"random": func(rng *rand.Rand, n int) Trace { return randomTrace(rng, n, 1+rng.Intn(60)) },
	"clustered": func(rng *rand.Rand, n int) Trace {
		return clusteredTrace(rng, n, 1+rng.Intn(60), 1+rng.Intn(6))
	},
	// Every cut of every split into 2..8 parts falls inside a run of one
	// page, so each later chunk opens with a repeat of the page the chunk
	// before it closed with.
	"runs-across-cuts": func(rng *rand.Rand, n int) Trace {
		t := randomTrace(rng, n, 1+rng.Intn(30))
		for parts := 2; parts <= 8; parts++ {
			pg := storage.PageID(rng.Intn(30))
			for k := 1; k < parts; k++ {
				c := k * n / parts
				for i := max(0, c-3); i < min(n, c+3); i++ {
					t[i] = pg
				}
			}
		}
		return t
	},
	// Dense ids then sparse ids (or the reverse), sharing some pages: the
	// sparse chunks take the map remap, the dense ones the slice remap.
	"dense-then-sparse": func(rng *rand.Rand, n int) Trace {
		pages := 1 + rng.Intn(40)
		return append(randomTrace(rng, n/2, pages), sparseTrace(rng, n-n/2, pages)...)
	},
	"sparse-then-dense": func(rng *rand.Rand, n int) Trace {
		pages := 1 + rng.Intn(40)
		return append(sparseTrace(rng, n/2, pages), randomTrace(rng, n-n/2, pages)...)
	},
	// Every chunk is shorter than the page count, and with more parts than
	// references some chunks are empty.
	"short-chunks": func(rng *rand.Rand, n int) Trace {
		return randomTrace(rng, 1+n%40, 100+rng.Intn(900))
	},
	"all-distinct": func(rng *rand.Rand, n int) Trace {
		t := make(Trace, n)
		for i, p := range rng.Perm(n) {
			t[i] = storage.PageID(p)
		}
		return t
	},
}

func TestAnalyzePartsMatchesSerialProperty(t *testing.T) {
	// The split pass into 1..8 contiguous chunks, merged in order, must
	// leave exactly the state of one Feed of the whole trace: the same
	// histogram, bit for bit, the oracle's, and the same curve.
	for name, shape := range splitShapes {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				trace := shape(rng, 1+rng.Intn(600))
				serial := NewAccum()
				serial.Feed(trace)
				want, wantCurve := serial.Histogram(), serial.Curve()
				if !histogramsEqual(want, ListSimulator{}.Run(trace)) {
					t.Logf("seed %d: serial pass disagrees with the oracle", seed)
					return false
				}
				for parts := 1; parts <= 8; parts++ {
					a := analyzeParts(trace, nil, parts)
					got, gotCurve := a.Histogram(), a.Curve()
					accumPool.Put(a)
					if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCurve, wantCurve) {
						t.Logf("seed %d: %d parts of %d references diverge from one Feed", seed, parts, len(trace))
						return false
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

func TestAnalyzeEmptyAndSingle(t *testing.T) {
	if c := Analyze(nil); c.Fetches(1) != 0 || c.Total() != 0 {
		t.Error("empty trace curve wrong")
	}
	if c := Analyze(tr(9)); c.Fetches(1) != 1 || c.Accesses() != 1 {
		t.Error("single-reference curve wrong")
	}
}

func TestAnalyzePooledConcurrent(t *testing.T) {
	// The pool hands each goroutine its own Accums; concurrent Analyze calls
	// must not interfere (run under -race in CI). Every trace is long enough
	// for Analyze to split it whenever GOMAXPROCS > 1.
	rng := rand.New(rand.NewSource(21))
	traces := make([]Trace, 16)
	wants := make([]*FetchCurve, len(traces))
	for i := range traces {
		traces[i] = clusteredTrace(rng, 2*minChunkRefs+i*997, 40+i, 4)
		wants[i] = ListSimulator{}.Run(traces[i]).FetchCurve()
	}
	errs := make(chan error, len(traces))
	for i := range traces {
		go func(i int) {
			c := Analyze(traces[i])
			for b := 1; b < 60; b += 7 {
				if c.Fetches(b) != wants[i].Fetches(b) {
					errs <- fmt.Errorf("trace %d F(%d): concurrent Analyze %d, oracle %d", i, b, c.Fetches(b), wants[i].Fetches(b))
					return
				}
			}
			errs <- nil
		}(i)
	}
	for range traces {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestStackCurveMatchesDirectSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		pages := 5 + rng.Intn(60)
		trace := clusteredTrace(rng, 400, pages, 1+rng.Intn(8))
		c := Analyze(trace)
		for _, b := range []int{1, 2, 3, 5, pages / 2, pages, pages + 10} {
			if b < 1 {
				b = 1
			}
			direct, err := DirectFetches(trace, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Fetches(b); got != direct {
				t.Fatalf("trial %d: F(%d) = %d via stack, %d via direct", trial, b, got, direct)
			}
		}
	}
}

func TestStackCurveMatchesRealBufferPool(t *testing.T) {
	// End-to-end cross-check against the actual LRU buffer pool in
	// internal/buffer: the counts must agree exactly.
	rng := rand.New(rand.NewSource(7))
	const pages = 30
	store := storage.NewMemStore()
	for i := 0; i < pages; i++ {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WritePage(id, storage.NewPage(id, storage.PageKindHeap)); err != nil {
			t.Fatal(err)
		}
	}
	trace := clusteredTrace(rng, 600, pages, 4)
	c := Analyze(trace)
	for _, b := range []int{1, 3, 7, 15, 30} {
		pool, err := buffer.NewLRU(store, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range trace {
			if _, err := pool.Get(pg); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := pool.Stats().Fetches, c.Fetches(b); got != want {
			t.Errorf("B=%d: real pool fetched %d, stack curve says %d", b, got, want)
		}
	}
}

func TestFetchCurveMonotoneNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := randomTrace(rng, 300, 1+rng.Intn(50))
		c := Analyze(trace)
		prev := c.Fetches(1)
		for b := 2; b < 60; b++ {
			cur := c.Fetches(b)
			if cur > prev {
				return false
			}
			prev = cur
		}
		// Bounds: A <= F(B) <= Total.
		return prev >= c.Accesses() && c.Fetches(1) <= c.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMinBufferForFullCaching(t *testing.T) {
	// 1 2 3 1 2 3 needs exactly 3 frames for full caching.
	c := Analyze(tr(1, 2, 3, 1, 2, 3))
	if got := c.MinBufferForFullCaching(); got != 3 {
		t.Errorf("MinBufferForFullCaching = %d, want 3", got)
	}
	// A sequential scan needs only 1.
	c = Analyze(tr(1, 1, 2, 2, 3, 3))
	if got := c.MinBufferForFullCaching(); got != 1 {
		t.Errorf("sequential MinBufferForFullCaching = %d, want 1", got)
	}
}

func TestDirectFetchesValidation(t *testing.T) {
	if _, err := DirectFetches(tr(1), 0); err == nil {
		t.Error("DirectFetches with B=0 succeeded")
	}
}

func TestTraceHelpers(t *testing.T) {
	trace := tr(1, 2, 2, 3)
	if got := trace.DistinctPages(); got != 3 {
		t.Errorf("DistinctPages = %d, want 3", got)
	}
	cl := trace.Clone()
	cl[0] = 9
	if trace[0] != 1 {
		t.Error("Clone aliases original")
	}
}

func TestSampleCurve(t *testing.T) {
	c := Analyze(tr(1, 2, 3, 1, 2, 3))
	pts := SampleCurve(c, []int{5, 1, 3, 3, -2})
	// -2 clamps to 1 which duplicates 1; expect B = 1, 3, 5.
	if len(pts) != 3 || pts[0].B != 1 || pts[1].B != 3 || pts[2].B != 5 {
		t.Fatalf("SampleCurve points = %+v", pts)
	}
	if pts[0].F != 6 || pts[1].F != 3 {
		t.Errorf("SampleCurve values = %+v", pts)
	}
}

func TestFetchesClampsSmallB(t *testing.T) {
	c := Analyze(tr(1, 2, 1, 2))
	if c.Fetches(0) != c.Fetches(1) || c.Fetches(-5) != c.Fetches(1) {
		t.Error("Fetches should clamp B < 1 to 1")
	}
}

// BenchmarkAnalyze measures the pooled one-shot pass on a 100k-reference
// clustered trace.
func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trace := clusteredTrace(rng, 100_000, 2_000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(trace)
	}
}

// BenchmarkAnalyzeSplit compares the serial pass with the split one
// (max(2, GOMAXPROCS) chunks) on offline-fit-sized traces: a 25k-reference
// clustered index scan over 625 pages, the same references shuffled, and
// two sequential passes over n/2 pages. There every page of the later chunk
// needs Merge's fix-up, which costs more than feeding the chunk did, so the
// split loses (~45% slower on a 2-vCPU Xeon): it pays off only while a
// chunk's distinct pages are a small share of its references, as in every
// index scan with several records per page.
func BenchmarkAnalyzeSplit(b *testing.B) {
	split := max(2, runtime.GOMAXPROCS(0))
	for _, c := range splitBenchTraces() {
		for _, parts := range []int{1, split} {
			mode := "serial"
			if parts > 1 {
				mode = "split"
			}
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					accumPool.Put(analyzeParts(c.trace, nil, parts))
				}
			})
		}
	}
}

// benchTrace is one named benchmark input.
type benchTrace struct {
	name  string
	trace Trace
}

// splitBenchTraces are the split benchmarks' offline-fit-sized traces.
func splitBenchTraces() []benchTrace {
	const n = 25_000
	rng := rand.New(rand.NewSource(1))
	clustered := clusteredTrace(rng, n, 625, 8)
	unclustered := clustered.Clone()
	rng.Shuffle(n, func(i, j int) { unclustered[i], unclustered[j] = unclustered[j], unclustered[i] })
	twoPasses := make(Trace, n)
	for i := range twoPasses {
		twoPasses[i] = storage.PageID(i % (n / 2))
	}
	return []benchTrace{{"clustered", clustered}, {"unclustered", unclustered}, {"two-passes", twoPasses}}
}

func BenchmarkListSimulator(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trace := clusteredTrace(rng, 20_000, 500, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ListSimulator{}.Run(trace)
	}
}

func TestClockFetchesValidation(t *testing.T) {
	if _, err := ClockFetches(tr(1), 0); err == nil {
		t.Error("ClockFetches with B=0 succeeded")
	}
}

func TestClockFetchesSequentialEqualsLRU(t *testing.T) {
	// On a sequential (clustered) trace every policy performs identically:
	// compulsory misses only.
	trace := tr(0, 0, 1, 1, 2, 2, 3, 3)
	for _, b := range []int{1, 2, 5} {
		got, err := ClockFetches(trace, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != 4 {
			t.Errorf("B=%d: clock fetches = %d, want 4", b, got)
		}
	}
}

func TestClockFetchesMatchesRealClockPool(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const pages = 20
	store := storage.NewMemStore()
	for i := 0; i < pages; i++ {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WritePage(id, storage.NewPage(id, storage.PageKindHeap)); err != nil {
			t.Fatal(err)
		}
	}
	trace := clusteredTrace(rng, 500, pages, 5)
	for _, b := range []int{1, 3, 8, 20} {
		pool, err := buffer.NewClock(store, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range trace {
			if _, err := pool.Get(pg); err != nil {
				t.Fatal(err)
			}
		}
		sim, err := ClockFetches(trace, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := pool.Stats().Fetches; got != sim {
			t.Errorf("B=%d: real clock pool fetched %d, simulator says %d", b, got, sim)
		}
	}
}

func TestClockBetweenLRUBounds(t *testing.T) {
	// Clock is an LRU approximation: its fetch count should be bounded
	// below by cold misses and above by the trace length, and typically
	// close to LRU's.
	rng := rand.New(rand.NewSource(9))
	trace := clusteredTrace(rng, 2000, 100, 10)
	curve := Analyze(trace)
	for _, b := range []int{5, 20, 50, 100} {
		clock, err := ClockFetches(trace, b)
		if err != nil {
			t.Fatal(err)
		}
		if clock < curve.Accesses() || clock > curve.Total() {
			t.Errorf("B=%d: clock fetches %d outside [%d, %d]", b, clock, curve.Accesses(), curve.Total())
		}
	}
}
