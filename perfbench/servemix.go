package main

// serve-mix: the optimizer's hot path. One node on loopback in the
// production configuration (default request timeout, memo cache, admission
// control and trace ring) serving 64 fitted indexes to two closed-loop
// keep-alive clients: 90% GET /v1/estimate, 10% POST /v1/estimate/batch of
// 64 plans. Plan shapes are Zipf-skewed over four times the memo cache's
// capacity, so the working set does not fit.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/core"
	"epfis/internal/service"
	"epfis/internal/stats"
)

const (
	serveClients     = 2
	batchPlans       = 64
	batchShare       = 0.10
	zipfS            = 1.1
	serveBatchBodies = 512
	warmup           = 500 * time.Millisecond
	opSeqLen         = 1 << 18 // per-client operation sequence, cycled
)

// shape is one plan: an index, a buffer size and a selectivity, with the
// answer the benchmark's own fit gives.
type shape struct {
	fit   *fitted
	b     int64
	sigma float64
	want  float64
}

// batchBody is one pre-encoded 64-plan batch with its expected answers.
type batchBody struct {
	body []byte
	want []float64
}

// serveSys is one set-up of the serve-mix workload.
type serveSys struct {
	fits    []*fitted
	store   *catalog.Store
	node    *httpNode
	shapes  []shape
	single  []*http.Request // one GET per shape, shared read-only
	batches []batchBody
	ops     [serveClients][]int32 // >= 0: shape; < 0: batch -(op+1)
}

func setupServeMix(opts *options, rec *recorder) (*serveSys, error) {
	synRounds, gwlRounds := 4, 2 // 48 synthetic + 16 GWL = 64 indexes
	if opts.tiny {
		synRounds, gwlRounds = 1, 0
	}
	fits, err := servingFits(opts.seed, synRounds, gwlRounds, opts.tiny)
	if err != nil {
		return nil, err
	}
	store, err := seededStore(fits)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Store: store})
	if err != nil {
		return nil, err
	}
	ln, base, err := listen()
	if err != nil {
		srv.Close()
		return nil, err
	}
	node, err := serveNode(opts, srv, ln, base, rec, 0)
	if err != nil {
		return nil, err
	}
	sys := &serveSys{fits: fits, store: store, node: node}
	if err := sys.buildInputs(opts.seed, base); err != nil {
		node.stop()
		return nil, err
	}
	return sys, nil
}

// seededStore installs the fits as one catalog generation.
func seededStore(fits []*fitted) (*catalog.Store, error) {
	c := stats.NewCatalog()
	for _, f := range fits {
		if err := c.Put(f.st); err != nil {
			return nil, err
		}
	}
	store := catalog.NewStore()
	if _, err := store.ReplaceAll(c); err != nil {
		return nil, err
	}
	return store, nil
}

// planShapes builds perIndex plans per fit: buffer sizes from 1% to 120% of
// T and selectivities from 0.1% to 90%, both geometric, shuffled.
func planShapes(fits []*fitted, perIndex int, rng *rand.Rand) ([]shape, error) {
	side := int(math.Ceil(math.Sqrt(float64(perIndex))))
	var out []shape
	for _, f := range fits {
		n := 0
		for i := 0; i < side && n < perIndex; i++ {
			b := int64(math.Round(float64(f.st.T) * 0.01 * math.Pow(120, float64(i)/float64(side-1))))
			if b < 1 {
				b = 1
			}
			for j := 0; j < side && n < perIndex; j++ {
				sigma := 0.001 * math.Pow(900, float64(j)/float64(side-1))
				want, err := core.EstimateFetches(f.st, b, sigma, 1)
				if err != nil {
					return nil, err
				}
				out = append(out, shape{fit: f, b: b, sigma: sigma, want: want})
				n++
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func estimateURL(base string, s *shape) string {
	return base + "/v1/estimate?table=" + url.QueryEscape(s.fit.st.Table) + "&column=" + url.QueryEscape(s.fit.st.Column) +
		"&b=" + strconv.FormatInt(s.b, 10) + "&sigma=" + strconv.FormatFloat(s.sigma, 'g', -1, 64)
}

// buildInputs makes every URL, request body and operation sequence, so the
// timed loop encodes nothing.
func (sys *serveSys) buildInputs(seed int64, base string) error {
	rng := rand.New(rand.NewSource(seed))
	perIndex := 4 * service.DefaultCacheEntries / len(sys.fits)
	shapes, err := planShapes(sys.fits, perIndex, rng)
	if err != nil {
		return err
	}
	sys.shapes = shapes
	sys.single = make([]*http.Request, len(shapes))
	for i := range shapes {
		req, err := http.NewRequest(http.MethodGet, estimateURL(base, &shapes[i]), nil)
		if err != nil {
			return err
		}
		sys.single[i] = req
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(shapes)-1))
	for b := 0; b < serveBatchBodies; b++ {
		var breq service.BatchRequest
		want := make([]float64, batchPlans)
		for k := 0; k < batchPlans; k++ {
			s := &shapes[zipf.Uint64()]
			breq.Requests = append(breq.Requests, service.EstimateRequest{
				Table: s.fit.st.Table, Column: s.fit.st.Column, B: s.b, Sigma: s.sigma})
			want[k] = s.want
		}
		body, err := json.Marshal(breq)
		if err != nil {
			return err
		}
		sys.batches = append(sys.batches, batchBody{body: body, want: want})
	}
	for c := range sys.ops {
		ops := make([]int32, opSeqLen)
		for i := range ops {
			if rng.Float64() < batchShare {
				ops[i] = -int32(rng.Intn(len(sys.batches))) - 1
			} else {
				ops[i] = int32(zipf.Uint64())
			}
		}
		sys.ops[c] = ops
	}
	return nil
}

// serveStats is one measured phase of the client loop.
type serveStats struct {
	elapsed                 time.Duration
	single, batch           []int64 // latencies, ns
	singlePlans, batchPlans int64
	cachedPlans, bodyBytes  int64
}

func (a *serveStats) merge(b *serveStats) {
	a.single = append(a.single, b.single...)
	a.batch = append(a.batch, b.batch...)
	a.singlePlans += b.singlePlans
	a.batchPlans += b.batchPlans
	a.cachedPlans += b.cachedPlans
	a.bodyBytes += b.bodyBytes
}

// serveClient is one closed-loop caller.
type serveClient struct {
	sys    *serveSys
	tr     *http.Transport
	ops    []int32
	pos    int
	buf    []byte
	rep    *report
	single *opClass
	batch  *opClass
	base   string
}

var (
	fetchesKey = []byte(`"fetches":`)
	cachedTrue = []byte(`"cached":true`)
)

// checkFetches reports whether body carries exactly len(want) "fetches"
// values, each bit-exact with its want, in order.
func checkFetches(body []byte, want []float64) bool {
	off := 0
	for _, w := range want {
		i := bytes.Index(body[off:], fetchesKey)
		if i < 0 {
			return false
		}
		j := off + i + len(fetchesKey)
		k := j
		for k < len(body) && body[k] != ',' && body[k] != '}' {
			k++
		}
		v, err := strconv.ParseFloat(string(body[j:k]), 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
		off = k
	}
	return bytes.Index(body[off:], fetchesKey) < 0
}

// loop runs operations until the deadline. With rec set, each request
// carries a client span.
func (c *serveClient) loop(deadline time.Time, measured bool, rec *recorder, st *serveStats) {
	for time.Now().Before(deadline) {
		op := c.ops[c.pos%len(c.ops)]
		c.pos++
		var (
			req  *http.Request
			want []float64
			name string
			one  [1]float64
		)
		if op >= 0 {
			s := &c.sys.shapes[op]
			req, one[0], want, name = c.sys.single[op], s.want, one[:], "client.estimate"
		} else {
			bb := &c.sys.batches[-op-1]
			r, err := http.NewRequest(http.MethodPost, c.base+"/v1/estimate/batch", bytes.NewReader(bb.body))
			if err != nil {
				panic(err) // the URL was valid at set-up
			}
			r.Header.Set("Content-Type", "application/json")
			req, want, name = r, bb.want, "client.batch"
		}
		var sp span
		if rec != nil {
			if op >= 0 {
				req = req.Clone(req.Context())
			}
			sp = rec.clientSpan(name, req.Header)
		}
		t0 := time.Now()
		resp, err := c.tr.RoundTrip(req)
		status := 0
		if err == nil {
			status = resp.StatusCode
			c.buf, err = readBody(resp, c.buf)
		}
		lat := time.Since(t0)
		if rec != nil {
			rec.finish(sp)
		}
		class := c.single
		if op < 0 {
			class = c.batch
		}
		ok := err == nil && status == http.StatusOK && checkFetches(c.buf, want)
		if err == nil && status == http.StatusOK && !ok {
			c.rep.mismatch("%s answer differs from the offline fit: %.200s", name, c.buf)
		}
		if !measured {
			continue
		}
		if !ok {
			class.fail()
			continue
		}
		class.ok()
		st.cachedPlans += int64(bytes.Count(c.buf, cachedTrue))
		st.bodyBytes += int64(len(c.buf))
		if op >= 0 {
			st.single = append(st.single, int64(lat))
			st.singlePlans++
		} else {
			st.batch = append(st.batch, int64(lat))
			st.batchPlans += int64(len(want))
		}
	}
}

// window is the length of one measurement window. Rates and medians are
// taken per window and reported as the median over windows, so a burst of
// host contention moves one window, not the figure.
const window = time.Second

// windowStats is one phase's per-window statistics.
type windowStats []*serveStats

func (w windowStats) median(f func(*serveStats) float64) float64 {
	xs := make([]float64, len(w))
	for i, s := range w {
		xs[i] = f(s)
	}
	return median(xs)
}

// windows runs the clients for d in consecutive windows of about one
// window each and returns the merged statistics and each window's.
func windows(clients []*serveClient, d time.Duration, rec *recorder) (*serveStats, windowStats) {
	total := &serveStats{}
	var ws windowStats
	n := max(1, int((d+window/2)/window))
	for i := 0; i < n; i++ {
		st := phase(clients, d/time.Duration(n), true, rec)
		total.merge(st)
		total.elapsed += st.elapsed
		ws = append(ws, st)
	}
	return total, ws
}

// phase runs every client for d and merges their statistics.
func phase(clients []*serveClient, d time.Duration, measured bool, rec *recorder) *serveStats {
	deadline := time.Now().Add(d)
	start := time.Now()
	parts := make([]serveStats, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *serveClient, st *serveStats) {
			defer wg.Done()
			c.loop(deadline, measured, rec, st)
		}(c, &parts[i])
	}
	wg.Wait()
	total := &serveStats{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

func runServeMix(opts *options, rep *report) error {
	var rec *recorder
	if opts.trace {
		rec = newRecorder()
	}
	sys, err := timeSetups(rep, func() (*serveSys, error) { return setupServeMix(opts, rec) },
		func(s *serveSys) { s.node.stop() })
	if err != nil {
		return err
	}
	defer sys.node.stop()

	dialer := &countingDialer{}
	tr := newClientTransport(serveClients, dialer)
	defer tr.CloseIdleConnections()
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = &serveClient{
			sys: sys, tr: tr, ops: sys.ops[i], rep: rep, base: sys.node.url,
			single: rep.class("estimate"), batch: rep.class("batch"),
		}
	}
	phase(clients, warmup, false, nil)

	rss := startRSS()
	p0 := sampleProc()
	st, w := windows(clients, opts.untracedDur(), nil)
	p1 := sampleProc()
	rep.metric("peak_rss_mb", rss.stopMB(), "MB")
	plansPerS := w.median(func(s *serveStats) float64 { return float64(s.singlePlans+s.batchPlans) / s.elapsed.Seconds() })
	estP50 := w.median(func(s *serveStats) float64 { return percentile(s.single, 0.5) / 1e3 })
	batchP50 := w.median(func(s *serveStats) float64 { return percentile(s.batch, 0.5) / 1e3 })
	estP99, batchP99 := percentile(st.single, 0.99)/1e3, percentile(st.batch, 0.99)/1e3
	rep.metric("primary_per_s", w.median(func(s *serveStats) float64 { return float64(s.singlePlans) / s.elapsed.Seconds() }), "1/s")
	rep.metric("secondary_per_s", w.median(func(s *serveStats) float64 { return float64(s.batchPlans) / s.elapsed.Seconds() }), "1/s")
	rep.metric("primary_p50_us", estP50, "us")
	rep.metric("secondary_p50_us", batchP50, "us")
	rep.named("estimates_per_s", plansPerS, "plans/s")
	rep.named("estimate_p50_us", estP50, "us")
	rep.named("estimate_p99_us", estP99, "us")
	rep.named("batch_p50_us", batchP50, "us")
	rep.named("batch_p99_us", batchP99, "us")
	rep.named("estimate_samples", float64(len(st.single)), "count")
	rep.named("batch_samples", float64(len(st.batch)), "count")
	if !opts.trace {
		return nil
	}
	rep.recordProc(p0, p1, int64(len(st.single)+len(st.batch)))
	rep.metric("e2e.estimate_p99_us", estP99, "us")
	rep.metric("e2e.batch_p99_us", batchP99, "us")
	return sys.traced(opts, rep, rec, clients, dialer, plansPerS)
}

// traced runs the traced half and derives the per-layer metrics.
func (sys *serveSys) traced(opts *options, rep *report, rec *recorder, clients []*serveClient,
	dialer *countingDialer, untracedRate float64) error {
	mc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	defer mc.CloseIdleConnections()
	before, err := promCounters(mc, sys.node.url)
	if err != nil {
		return err
	}
	rec.on.Store(true)
	st, w := windows(clients, opts.tracedDur(), rec)
	rec.on.Store(false)
	after, err := promCounters(mc, sys.node.url)
	if err != nil {
		return err
	}
	plans := st.singlePlans + st.batchPlans
	rate := w.median(func(s *serveStats) float64 { return float64(s.singlePlans+s.batchPlans) / s.elapsed.Seconds() })
	rep.metric("trace.overhead_pct", 100*(untracedRate-rate)/untracedRate, "%")

	ix := indexSpans(rec.spans())
	rep.metric("transport.estimate_us", ix.transportP50("client.estimate"), "us")
	rep.metric("transport.conns_dialed", float64(dialer.count.Load()), "count")
	rep.metric("service.handler_estimate_us", ix.handlerSelfP50("handler.estimate"), "us")
	rep.metric("service.handler_batch_us", ix.handlerSelfP50("handler.batch"), "us")
	if plans > 0 {
		rep.metric("service.cache_hit_ratio", float64(st.cachedPlans)/float64(plans), "ratio")
		rep.metric("service.response_bytes_per_plan", float64(st.bodyBytes)/float64(plans), "B")
	}
	b, a := []map[string]float64{before}, []map[string]float64{after}
	hits, misses := promDelta(b, a, "epfis_cache_hits_total"), promDelta(b, a, "epfis_cache_misses_total")
	if int64(hits) != st.cachedPlans || int64(hits+misses) != plans {
		rep.mismatch("cache counters disagree with responses: /metrics hits=%v misses=%v, responses cached=%d of %d plans",
			hits, misses, st.cachedPlans, plans)
	}
	rep.named("metrics_cache_hit_ratio", hits/math.Max(hits+misses, 1), "ratio")
	rep.metric("service.cache_evictions", promDelta(b, a, "epfis_cache_evictions_total"), "count")
	rep.metric("service.admission_sheds", promDelta(b, a, "epfis_admission_shed_total"), "count")

	replayServing(rep, rec, sys.shapes, sys.store)
	return finishTrace(opts, rep, rec, ix)
}

// replayServing replays the serving path's inner layers: Est-IO through
// the compiled estimator over every sampled plan (checked against the
// offline answer), and the catalog snapshot plus compiled-estimator lookup
// each served estimate starts with.
func replayServing(rep *report, rec *recorder, shapes []shape, store *catalog.Store) {
	const reps = 8
	var est core.Estimate
	var estNs, snapNs int64
	for r := 0; r < reps; r++ {
		estNs += rec.timed("replay.core.estimate", func() {
			for i := range shapes {
				s := &shapes[i]
				if err := s.fit.ce.EstimateInto(&est, core.Input{B: s.b, Sigma: s.sigma, S: 1}); err != nil ||
					math.Float64bits(est.F) != math.Float64bits(s.want) {
					rep.mismatch("compiled estimator differs from EstIO for %s b=%d sigma=%g", s.fit.st.Key(), s.b, s.sigma)
				}
			}
		})
		snapNs += rec.timed("replay.catalog.snapshot", func() {
			for i := range shapes {
				st := shapes[i].fit.st
				if _, ok := store.Snapshot().Compiled(st.Table, st.Column); !ok {
					rep.mismatch("no compiled estimator for %s", st.Key())
				}
			}
		})
	}
	rep.metric("core.estimate_ns", float64(estNs)/float64(reps*len(shapes)), "ns")
	rep.metric("catalog.snapshot_ns", float64(snapNs)/float64(reps*len(shapes)), "ns")
}

// finishTrace records the span count and writes the spans out.
func finishTrace(opts *options, rep *report, rec *recorder, ix *spanIndex) error {
	spans := rec.spans()
	rep.metric("trace.spans", float64(len(spans)), "count")
	ix.recordHops(rep)
	path, err := dumpSpans(filepath.Join(filepath.Dir(opts.workDir), "spans"), opts.workload, opts.seed, spans)
	if err != nil {
		return err
	}
	rep.printf("# spans written to %s\n", path)
	return nil
}
