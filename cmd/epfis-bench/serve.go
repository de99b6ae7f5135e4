package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/service"
)

// allocBudgets is the CI regression gate: the serve suite exits non-zero
// when a measured allocs/op exceeds its committed budget, so an
// encoding/json reflection path (or any other allocation regression)
// sneaking back into the serving path fails the build instead of the next
// profiling session.
type allocBudgets struct {
	SingleAllocsPerOpMax  int64 `json:"single_allocs_per_op_max"`
	Batch64AllocsPerOpMax int64 `json:"batch64_allocs_per_op_max"`
}

// serveReport is the BENCH_serve.json document.
type serveReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	NumCPU      int          `json:"num_cpu"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Benchmarks  []benchEntry `json:"benchmarks"`
	Budgets     allocBudgets `json:"alloc_budgets"`
	BudgetsMet  bool         `json:"budgets_met"`
}

// serveBenchServer mirrors the serving-path configuration of the
// cmd/epfis-serve benchmarks: one fitted synthetic index behind the
// production defaults (request deadline included).
func serveBenchServer(cacheEntries int) (*service.Server, error) {
	cfg := datagen.Config{Name: "orders", Column: "key", N: 100_000, I: 1_000, R: 40, K: 0.2, Seed: 1}
	ds, err := datagen.GenerateDataset(cfg)
	if err != nil {
		return nil, err
	}
	st, err := core.LRUFit(ds.Trace(), core.Meta{Table: "orders", Column: "key", T: ds.T, N: cfg.N, I: cfg.I}, core.Options{})
	if err != nil {
		return nil, err
	}
	store := catalog.NewStore()
	if _, err := store.Put(st); err != nil {
		return nil, err
	}
	return service.New(service.Config{Store: store, CacheEntries: cacheEntries})
}

// discardWriter is a reusable http.ResponseWriter so the measurement sees
// only the server's own allocations.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (w *discardWriter) reset() {
	w.status = 0
	for k := range w.h {
		delete(w.h, k)
	}
}

type rewindBody struct{ r *bytes.Reader }

func (b *rewindBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *rewindBody) Close() error               { return nil }

type planShape struct {
	B     int64
	Sigma float64
}

func servePlanShapes() []planShape {
	shapes := make([]planShape, 32)
	for i := range shapes {
		shapes[i] = planShape{B: int64(12 + 77*i), Sigma: float64(1+i) / float64(len(shapes)+1)}
	}
	return shapes
}

func serveSingleRequests(shapes []planShape) []*http.Request {
	reqs := make([]*http.Request, len(shapes))
	for i, sh := range shapes {
		reqs[i] = httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/estimate?table=orders&column=key&b=%d&sigma=%g", sh.B, sh.Sigma), nil)
	}
	return reqs
}

const serveFanout = 64

func serveBatchPayload(shapes []planShape) ([]byte, error) {
	var breq service.BatchRequest
	for i := 0; i < serveFanout; i++ {
		sh := shapes[i%len(shapes)]
		breq.Requests = append(breq.Requests, service.EstimateRequest{
			Table: "orders", Column: "key", B: sh.B, Sigma: sh.Sigma,
		})
	}
	return json.Marshal(breq)
}

// runServeSuite measures the serving-path benchmarks, writes BENCH_serve.json
// to out, and enforces the allocation budgets. Returns false on a budget
// breach (main exits non-zero).
func runServeSuite(out string, budgets allocBudgets) bool {
	shapes := servePlanShapes()
	rep := serveReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Budgets:     budgets,
	}

	newServer := func(cacheEntries int) *service.Server {
		srv, err := serveBenchServer(cacheEntries)
		if err != nil {
			fatalf("serve suite: %v", err)
		}
		return srv
	}
	serveOne := func(srv *service.Server, w *discardWriter, req *http.Request) {
		w.reset()
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			fatalf("serve suite: status %d for %s", w.status, req.URL)
		}
	}

	// single: rotating plan shapes through the warm memo.
	srv := newServer(0)
	reqs := serveSingleRequests(shapes)
	w := &discardWriter{h: make(http.Header, 4)}
	serveOne(srv, w, reqs[0])
	single := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveOne(srv, w, reqs[i%len(reqs)])
		}
	})
	rep.Benchmarks = append(rep.Benchmarks, entry("serve/single", single))

	// cache_hit: one shape, always memoized.
	hitSrv := newServer(0)
	serveOne(hitSrv, w, reqs[0])
	rep.Benchmarks = append(rep.Benchmarks,
		entry("serve/cache_hit", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveOne(hitSrv, w, reqs[0])
			}
		})))

	// cache_miss: memoization disabled, every request runs the compiled
	// estimator.
	missSrv := newServer(-1)
	serveOne(missSrv, w, reqs[0])
	rep.Benchmarks = append(rep.Benchmarks,
		entry("serve/cache_miss", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveOne(missSrv, w, reqs[i%len(reqs)])
			}
		})))

	// batch64: 64 estimates per request.
	payload, err := serveBatchPayload(shapes)
	if err != nil {
		fatalf("serve suite: %v", err)
	}
	body := &rewindBody{r: bytes.NewReader(payload)}
	breq := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", body)
	serveBatch := func(srv *service.Server) {
		w.reset()
		body.r.Seek(0, io.SeekStart)
		breq.Body = body
		srv.ServeHTTP(w, breq)
		if w.status != http.StatusOK {
			fatalf("serve suite: batch status %d", w.status)
		}
	}
	serveBatch(srv)
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveBatch(srv)
		}
	})
	be := entry("serve/batch64", batch)
	rep.Benchmarks = append(rep.Benchmarks, be)

	// parallel: contended clients over one server (per-goroutine writers and
	// cloned requests).
	parSrv := newServer(0)
	serveOne(parSrv, w, reqs[0])
	rep.Benchmarks = append(rep.Benchmarks,
		entry("serve/parallel_clients", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				pw := &discardWriter{h: make(http.Header, 4)}
				i := 0
				for pb.Next() {
					req := reqs[i%len(reqs)].Clone(reqs[0].Context())
					i++
					serveOne(parSrv, pw, req)
				}
			})
		})))

	// Budget gate.
	rep.BudgetsMet = true
	if single.AllocsPerOp() > budgets.SingleAllocsPerOpMax {
		rep.BudgetsMet = false
		fmt.Fprintf(os.Stderr, "epfis-bench: serve/single allocates %d/op, budget %d\n",
			single.AllocsPerOp(), budgets.SingleAllocsPerOpMax)
	}
	if batch.AllocsPerOp() > budgets.Batch64AllocsPerOpMax {
		rep.BudgetsMet = false
		fmt.Fprintf(os.Stderr, "epfis-bench: serve/batch64 allocates %d/op, budget %d\n",
			batch.AllocsPerOp(), budgets.Batch64AllocsPerOpMax)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatalf("write %s: %v", out, err)
	}

	fmt.Printf("epfis-bench: wrote %s\n", out)
	for _, e := range rep.Benchmarks {
		fmt.Printf("  %-36s %12.0f ns/op %8d allocs/op %12d B/op\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}
	fmt.Printf("  budgets: single<=%d batch64<=%d met=%v (num_cpu=%d)\n",
		budgets.SingleAllocsPerOpMax, budgets.Batch64AllocsPerOpMax, rep.BudgetsMet, rep.NumCPU)
	return rep.BudgetsMet
}
