package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"epfis/internal/catalog"
)

// Serving-path allocation budgets. These are the numbers BENCH_serve.json
// gates in CI: the whole handler stack (mux routing, admission control,
// metrics, parse, estimate, encode) measured per request, excluding only the
// kernel socket I/O that testing cannot meter deterministically.
const (
	singleAllocBudget  = 8  // GET /v1/estimate, memo warm
	batch64AllocBudget = 64 // POST /v1/estimate/batch, 64 items, memo warm
)

// allocWriter is a reusable ResponseWriter: the header map and body buffer
// are allocated once and reused, so the measurement sees only the server's
// own garbage.
type allocWriter struct {
	h      http.Header
	status int
	body   []byte
}

func newAllocWriter() *allocWriter { return &allocWriter{h: make(http.Header, 4)} }

func (w *allocWriter) Header() http.Header { return w.h }

func (w *allocWriter) WriteHeader(code int) { w.status = code }

func (w *allocWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *allocWriter) reset() {
	w.status = 0
	w.body = w.body[:0]
	for k := range w.h {
		delete(w.h, k)
	}
}

// newServingPathServer builds the configuration the serving benchmarks and
// alloc gates use: the production defaults (request deadline, admission
// control, memo cache, tracing) around one fitted index.
func newServingPathServer(t testing.TB) (*Server, *catalog.Store) {
	t.Helper()
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return srv, store
}

// rewindBody is a reusable request body.
type rewindBody struct{ r *bytes.Reader }

func (b *rewindBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *rewindBody) Close() error               { return nil }
func (b *rewindBody) rewind()                    { b.r.Seek(0, io.SeekStart) }

func batch64Body(t testing.TB) []byte {
	t.Helper()
	reqs := make([]EstimateRequest, 64)
	for i := range reqs {
		reqs[i] = EstimateRequest{Table: "orders", Column: "key", B: int64(12 + 77*i), Sigma: float64(1+i) / 33}
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAllocBudgetSingle pins the steady-state allocation count of one
// memoized GET /v1/estimate through the full handler stack.
func TestAllocBudgetSingle(t *testing.T) {
	srv, _ := newServingPathServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/estimate?table=orders&column=key&b=64&sigma=0.05", nil)
	w := newAllocWriter()

	serve := func() {
		w.reset()
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve() // warm memo, pools, and lazily allocated header values
	if n := testing.AllocsPerRun(200, serve); n > singleAllocBudget {
		t.Errorf("single estimate allocates %.1f/op, budget %d", n, singleAllocBudget)
	}
}

// TestAllocBudgetBatch64 pins the warm batch path: 64 items through one POST.
func TestAllocBudgetBatch64(t *testing.T) {
	srv, _ := newServingPathServer(t)
	body := &rewindBody{r: bytes.NewReader(batch64Body(t))}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", body)
	w := newAllocWriter()

	serve := func() {
		w.reset()
		body.rewind()
		req.Body = body
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve()
	if n := testing.AllocsPerRun(100, serve); n > batch64AllocBudget {
		t.Errorf("batch64 allocates %.1f/op, budget %d", n, batch64AllocBudget)
	}
}

// TestAllocBudgetSingleTraced pins the single-estimate path with every
// tracing feature exercised at once: an inbound traceparent to parse and
// re-parent, a slow-trace threshold of -1 so every request is flagged slow
// and copied into the ring, and the response header echo. This is the
// worst-case observability overhead, and it must fit the same budget.
func TestAllocBudgetSingleTraced(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/estimate?table=orders&column=key&b=64&sigma=0.05", nil)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	w := newAllocWriter()

	serve := func() {
		w.reset()
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve()
	if got := w.h.Get("Traceparent"); len(got) != 55 || got[:36] != "00-4bf92f3577b34da6a3ce929d0e0e4736-" {
		t.Fatalf("response traceparent = %q, want same trace id re-parented", got)
	}
	if n := testing.AllocsPerRun(200, serve); n > singleAllocBudget {
		t.Errorf("traced single estimate allocates %.1f/op, budget %d", n, singleAllocBudget)
	}
}

// TestAllocBudgetBatch64Traced is the batch counterpart: slow-flagged and
// ring-recorded on every request, within the same 64-alloc budget.
func TestAllocBudgetBatch64Traced(t *testing.T) {
	store := catalog.NewStore()
	if _, err := store.Put(fitStats(t, "orders", "key", 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	body := &rewindBody{r: bytes.NewReader(batch64Body(t))}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", body)
	req.Header.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	w := newAllocWriter()

	serve := func() {
		w.reset()
		body.rewind()
		req.Body = body
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serve()
	if n := testing.AllocsPerRun(100, serve); n > batch64AllocBudget {
		t.Errorf("traced batch64 allocates %.1f/op, budget %d", n, batch64AllocBudget)
	}
}
