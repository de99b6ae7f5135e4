package main

// -suite ingest: the streaming-ingestion perf baselines (BENCH_ingest.json,
// via `make bench-ingest`).
//
// Three layers are measured:
//
//   - catalog mutation throughput: the WAL-backed group-committed store
//     against the legacy fsync-rename-per-commit store, both hammered by
//     parallel writers over a realistically sized (~64 entry) catalog. The
//     suite fails when the WAL path is not at least -min-wal-speedup times
//     the legacy path — the headline number of the WAL redesign.
//   - incremental simulation: lrusim.Accum Feed cost per reference and the
//     cost of merging two 100k-reference shard accumulators. Feed's
//     amortized allocs/op is budgeted (-max-allocs-feed, default 2) and
//     enforced non-zero-exit like the serving-path budgets.
//   - the ingest route: POST /v1/ingest handler latency for a 4096-reference
//     batch, measured through ServeHTTP like the serve suite.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/curvefit"
	"epfis/internal/lrusim"
	"epfis/internal/service"
	"epfis/internal/stats"
)

// ingestBudgets is the ingest suite's regression gate.
type ingestBudgets struct {
	// FeedAllocsPerOpMax bounds Accum.Feed's amortized allocations per
	// 512-reference batch in steady state.
	FeedAllocsPerOpMax int64 `json:"feed_allocs_per_op_max"`
	// WALSpeedupMin is the minimum acceptable ratio of WAL group-commit
	// mutation throughput over the legacy rename-per-commit store.
	WALSpeedupMin float64 `json:"wal_speedup_min"`
}

// ingestReport is the BENCH_ingest.json document.
type ingestReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	NumCPU      int          `json:"num_cpu"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Benchmarks  []benchEntry `json:"benchmarks"`
	// WALMutationsPerSec and LegacyMutationsPerSec are the two stores'
	// committed-durable mutation rates under parallel writers.
	WALMutationsPerSec    float64       `json:"wal_mutations_per_sec"`
	LegacyMutationsPerSec float64       `json:"legacy_mutations_per_sec"`
	WALSpeedup            float64       `json:"wal_speedup_vs_rename"`
	FeedNsPerRef          float64       `json:"accum_feed_ns_per_ref"`
	Budgets               ingestBudgets `json:"budgets"`
	BudgetsMet            bool          `json:"budgets_met"`
}

// ingestBenchEntry builds one valid catalog entry; fmin varies so repeated
// Puts are real mutations, not byte-identical no-ops.
func ingestBenchEntry(table, column string, fmin int64) *stats.IndexStats {
	return &stats.IndexStats{
		Table: table, Column: column,
		T: 1000, N: 100_000, I: 1000,
		BMin: 12, BMax: 1000, FMin: fmin, C: 0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 12, Y: float64(fmin)}, {X: 1000, Y: 1000}}},
		GridPoints:  2,
		CollectedAt: time.Unix(0, 0).UTC(),
	}
}

// seedIngestCatalog installs ~64 entries so every commit serializes a
// realistically sized catalog (the legacy path rewrites all of it).
func seedIngestCatalog(store *catalog.Store) error {
	for i := 0; i < 64; i++ {
		if _, err := store.Put(ingestBenchEntry("t", fmt.Sprintf("c%d", i), 2000)); err != nil {
			return err
		}
	}
	return nil
}

// benchMutations hammers store.Put from parallel writers and reports the
// benchmark result; every iteration is one durably committed mutation.
func benchMutations(store *catalog.Store) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Group commit's throughput comes from batching concurrent writers:
		// run well more goroutines than cores so real groups form, the same
		// way a busy service has many in-flight mutations. The legacy store
		// serializes them all behind one fsync-rename each, regardless.
		b.SetParallelism(16)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				if _, err := store.Put(ingestBenchEntry("t", fmt.Sprintf("c%d", i%64), 2000+int64(i%971))); err != nil {
					fatalf("ingest suite: Put: %v", err)
				}
			}
		})
	})
}

func mutationsPerSec(r testing.BenchmarkResult) float64 {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return 1e9 / ns
}

// runIngestSuite measures the ingest-path benchmarks, writes the JSON
// baseline to out, and enforces the budgets. Returns false on a breach.
func runIngestSuite(out string, budgets ingestBudgets) bool {
	rep := ingestReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Budgets:     budgets,
	}

	dir, err := os.MkdirTemp("", "epfis-bench-ingest")
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	defer os.RemoveAll(dir)

	// --- Catalog mutation throughput: WAL group commit vs fsync-rename. ---
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		fatalf("ingest suite: %v", err)
	}
	walStore, err := catalog.OpenWAL(filepath.Join(dir, "wal", "catalog.json"), catalog.WALOptions{})
	if err != nil {
		fatalf("ingest suite: open WAL store: %v", err)
	}
	if err := seedIngestCatalog(walStore); err != nil {
		fatalf("ingest suite: seed WAL store: %v", err)
	}
	walRes := benchMutations(walStore)
	rep.Benchmarks = append(rep.Benchmarks, entry("catalog/put_wal_groupcommit", walRes))
	walStore.Close()

	legacyStore, err := catalog.Open(filepath.Join(dir, "legacy-catalog.json"))
	if err != nil {
		fatalf("ingest suite: open legacy store: %v", err)
	}
	if err := seedIngestCatalog(legacyStore); err != nil {
		fatalf("ingest suite: seed legacy store: %v", err)
	}
	legacyRes := benchMutations(legacyStore)
	rep.Benchmarks = append(rep.Benchmarks, entry("catalog/put_legacy_rename", legacyRes))

	rep.WALMutationsPerSec = mutationsPerSec(walRes)
	rep.LegacyMutationsPerSec = mutationsPerSec(legacyRes)
	rep.WALSpeedup = rep.WALMutationsPerSec / rep.LegacyMutationsPerSec

	// --- Incremental simulation: Accum feed and shard merge. ---
	const feedBatch = 512
	trace := lcgTrace(1 << 22, 4096)
	accum := lrusim.NewAccum()
	var off int
	feedRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Warm past the growth phase so the measurement sees steady state.
		if accum.Total() == 0 {
			for i := 0; i < 64; i++ {
				accum.Feed(trace[off : off+feedBatch])
				off = (off + feedBatch) % (len(trace) - feedBatch)
			}
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if accum.Total() > lrusim.MaxAccumRefs-feedBatch {
				accum.Reset()
			}
			accum.Feed(trace[off : off+feedBatch])
			off = (off + feedBatch) % (len(trace) - feedBatch)
		}
	})
	fe := entry("lrusim/accum_feed_512", feedRes)
	rep.Benchmarks = append(rep.Benchmarks, fe)
	rep.FeedNsPerRef = fe.NsPerOp / feedBatch

	half := len(trace) / 2
	mergeRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a, c := lrusim.NewAccum(), lrusim.NewAccum()
			a.Feed(trace[:100_000])
			c.Feed(trace[half : half+100_000])
			b.StartTimer()
			a.Merge(c)
		}
	})
	rep.Benchmarks = append(rep.Benchmarks, entry("lrusim/accum_merge_100k", mergeRes))

	// --- The ingest route: one 4096-reference batch through ServeHTTP. ---
	store := catalog.NewStore()
	if err := seedIngestCatalog(store); err != nil {
		fatalf("ingest suite: %v", err)
	}
	srv, err := service.New(service.Config{Store: store, IngestQueue: 1 << 16})
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	defer srv.Close()
	payload, err := json.Marshal(service.IngestRequest{
		Table: "t", Column: "c0", Pages: lcgTrace(4096, 1000),
		T: 1000, N: 1 << 30, I: 1000, // N unreachable: pure feed cost, no refits
	})
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	body := &rewindBody{r: bytes.NewReader(payload)}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", body)
	w := &discardWriter{h: make(http.Header, 4)}
	postBatch := func() {
		w.reset()
		body.r.Seek(0, 0)
		req.Body = body
		srv.ServeHTTP(w, req)
		if w.status != http.StatusAccepted {
			fatalf("ingest suite: ingest status %d", w.status)
		}
	}
	postBatch()
	ingestRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			postBatch()
		}
	})
	ie := entry("service/ingest_post_4096", ingestRes)
	rep.Benchmarks = append(rep.Benchmarks, ie)

	// --- Budgets. ---
	rep.BudgetsMet = true
	if fe.AllocsPerOp > budgets.FeedAllocsPerOpMax {
		fmt.Fprintf(os.Stderr,
			"epfis-bench: BUDGET BREACH: lrusim/accum_feed_512 allocs/op = %d, budget %d\n",
			fe.AllocsPerOp, budgets.FeedAllocsPerOpMax)
		rep.BudgetsMet = false
	}
	if rep.WALSpeedup < budgets.WALSpeedupMin {
		fmt.Fprintf(os.Stderr,
			"epfis-bench: BUDGET BREACH: WAL mutation throughput %.1fx legacy, budget %.1fx\n",
			rep.WALSpeedup, budgets.WALSpeedupMin)
		rep.BudgetsMet = false
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("ingest suite: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatalf("ingest suite: %v", err)
	}
	fmt.Printf("wrote %s (wal %.0f mut/s, legacy %.0f mut/s, speedup %.1fx, feed %.1f ns/ref)\n",
		out, rep.WALMutationsPerSec, rep.LegacyMutationsPerSec, rep.WALSpeedup, rep.FeedNsPerRef)
	return rep.BudgetsMet
}
