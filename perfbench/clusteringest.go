package main

// cluster-ingest: writes beside reads. Three nodes in one process on
// loopback sockets, R = 2, default write quorum, WAL-backed catalogs and
// handoff journals on the host filesystem. The writer streams pre-encoded
// 4096-reference POST /v1/ingest batches for 8 indexes; each round is one
// full-scan window per index, and windows alternate between two
// clusterings, so every window drifts, refits, republishes and replicates.
// The reader runs closed-loop estimates against random nodes (a third land
// on a non-owner and are proxied) over a shape set that fits the memo
// cache, with a quorum PUT every putEvery reads.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/faultfs"
	"epfis/internal/lrusim"
	"epfis/internal/service"
	"epfis/internal/stats"
)

const (
	clusterNodes     = 3
	ingestIndexes    = 8
	windowBatches    = 16 // a window is N = 16 × 4096 references
	readShapesTotal  = 1024
	putEvery         = 200
	visibleTimeout   = 30 * time.Second
	ingestRetryPause = 5 * time.Millisecond
)

// ingestIndex is one streamed index: two clusterings of the same table
// shape, their offline fits, and their pre-encoded batches.
type ingestIndex struct {
	meta   core.Meta
	key    string
	fits   [2]*stats.IndexStats
	traces [2]lrusim.Trace
	bodies [2][][]byte
	target int   // node the writer posts to
	owners []int // ring owners
}

type clusterNode struct {
	id    string
	store *catalog.Store
	node  *cluster.Node
	http  *httpNode
	fs    *countFS // traced runs
}

type clusterSys struct {
	dir     string
	nodes   []*clusterNode
	cancel  context.CancelFunc
	gossip  sync.WaitGroup
	static  []*fitted
	ingest  []*ingestIndex
	shapes  []shape
	reads   [][]*http.Request // [node][shape], shared read-only
	readOps []int32           // node*len(shapes) + shape
	puts    [][]byte          // PUT body per static fit
	putOps  []int32           // node*len(puts) + fit
	rng     *rand.Rand
}

// ingestData builds the streamed indexes: two clusterings (tight and loose)
// per index, fitted offline and split into journaled batches.
func ingestData(seed int64, tiny bool) ([]*ingestIndex, error) {
	n, batches := int64(windowBatches*ingestBatchRefs), windowBatches
	if tiny {
		n, batches = 4*ingestBatchRefs, 4
	}
	out := make([]*ingestIndex, ingestIndexes)
	err := parallel(ingestIndexes, func(i int) error {
		ix := &ingestIndex{}
		for c, k := range []float64{0.02, 0.5} {
			cfg := datagen.Config{Name: "ingest", Column: fmt.Sprintf("i%d", i), N: n, I: n / 32, R: 32, K: k,
				Seed: seed*7 + int64(i)*31 + int64(c)}
			ds, err := datagen.GenerateDataset(cfg)
			if err != nil {
				return err
			}
			ix.meta = core.Meta{Table: cfg.Name, Column: cfg.Column, T: ds.T, N: cfg.N, I: cfg.I}
			ix.key = ix.meta.Table + "." + ix.meta.Column
			ix.traces[c] = ds.Trace()
			st, err := core.LRUFit(ix.traces[c], ix.meta, core.Options{})
			if err != nil {
				return err
			}
			ix.fits[c] = st
			for b := 0; b < batches; b++ {
				body, err := json.Marshal(service.IngestRequest{
					Table: ix.meta.Table, Column: ix.meta.Column,
					Pages: ix.traces[c][b*ingestBatchRefs : (b+1)*ingestBatchRefs],
					T:     ix.meta.T, N: ix.meta.N, I: ix.meta.I,
					BatchID: fmt.Sprintf("%s-c%d-b%d", ix.key, c, b),
				})
				if err != nil {
					return err
				}
				ix.bodies[c] = append(ix.bodies[c], body)
			}
		}
		out[i] = ix
		return nil
	})
	return out, err
}

func setupClusterIngest(opts *options, rec *recorder) (*clusterSys, error) {
	synRounds, gwlRounds := 1, 1
	if opts.tiny {
		gwlRounds = 0
	}
	static, err := servingFits(opts.seed, synRounds, gwlRounds, opts.tiny)
	if err != nil {
		return nil, err
	}
	ingest, err := ingestData(opts.seed, opts.tiny)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workDir, "cluster-")
	if err != nil {
		return nil, err
	}
	sys := &clusterSys{dir: dir, static: static, ingest: ingest, rng: rand.New(rand.NewSource(opts.seed))}
	if err := sys.start(opts, rec); err != nil {
		sys.stop()
		return nil, err
	}
	if err := sys.buildInputs(); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

// start opens the WAL stores, seeds them with one catalog generation (the
// static fits plus the second clustering of every streamed index, so the
// first window drifts), serves the nodes and waits until every ring holds
// all three.
func (sys *clusterSys) start(opts *options, rec *recorder) error {
	seed := stats.NewCatalog()
	for _, f := range sys.static {
		if err := seed.Put(f.st); err != nil {
			return err
		}
	}
	for _, ix := range sys.ingest {
		if err := seed.Put(ix.fits[1]); err != nil {
			return err
		}
	}
	lns := make([]net.Listener, clusterNodes)
	urls := make([]string, clusterNodes)
	defer func() {
		for _, ln := range lns[len(sys.nodes):] {
			if ln != nil {
				ln.Close() // never served: a set-up step failed
			}
		}
	}()
	for i := range urls {
		ln, u, err := listen()
		if err != nil {
			return err
		}
		lns[i], urls[i] = ln, u
	}
	for i := range urls {
		cn, err := sys.startNode(opts, rec, i, lns[i], urls, seed)
		if err != nil {
			return err
		}
		sys.nodes = append(sys.nodes, cn)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sys.cancel = cancel
	for _, cn := range sys.nodes {
		sys.gossip.Add(1)
		go func(n *cluster.Node) {
			defer sys.gossip.Done()
			_ = n.Run(ctx) // returns ctx.Err() at teardown
		}(cn.node)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, cn := range sys.nodes {
		for cn.node.Ring().Len() != clusterNodes {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s ring has %d members, want %d", cn.id, cn.node.Ring().Len(), clusterNodes)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// startNode opens one node's WAL store, seeds it, and serves it.
func (sys *clusterSys) startNode(opts *options, rec *recorder, i int, ln net.Listener, urls []string,
	seed *stats.Catalog) (*clusterNode, error) {
	cn := &clusterNode{id: fmt.Sprintf("node-%c", 'a'+i)}
	ndir := filepath.Join(sys.dir, cn.id)
	if err := os.MkdirAll(ndir, 0o755); err != nil {
		return nil, err
	}
	fsys := faultfs.OS()
	var outbound http.RoundTripper
	var nodeClient *http.Client
	if rec != nil {
		// The same transport and timeout the node and service default to,
		// with each hop recorded.
		cn.fs = newCountFS(rec, i)
		fsys = cn.fs
		outbound = &hopTransport{rec: rec, node: i, inner: cluster.SharedTransport()}
		nodeClient = &http.Client{Timeout: 5 * time.Second, Transport: outbound}
	}
	store, err := catalog.OpenWALFS(filepath.Join(ndir, "catalog.json"), catalog.WALOptions{}, fsys)
	if err != nil {
		return nil, err
	}
	cn.store = store
	fail := func(err error) (*clusterNode, error) {
		store.Close()
		return nil, err
	}
	if _, err := store.ReplaceAll(seed); err != nil {
		return fail(err)
	}
	node, err := cluster.NewNode(cluster.Config{
		SelfID: cn.id, SelfURL: urls[i], Seeds: urls, Store: store, HTTPClient: nodeClient,
	})
	if err != nil {
		return fail(err)
	}
	cn.node = node
	srv, err := service.New(service.Config{
		Store: store, Cluster: node, Transport: outbound,
		HandoffDir: filepath.Join(ndir, "handoff"),
	})
	if err != nil {
		return fail(err)
	}
	hn, err := serveNode(opts, srv, ln, urls[i], rec, i)
	if err != nil {
		return fail(err)
	}
	cn.http = hn
	return cn, nil
}

// stop tears the cluster down: gossip first, then the HTTP servers and the
// services' workers, then the WAL stores.
func (sys *clusterSys) stop() {
	if sys.cancel != nil {
		sys.cancel()
		sys.gossip.Wait()
	}
	for _, cn := range sys.nodes {
		cn.http.stop()
	}
	for _, cn := range sys.nodes {
		cn.store.Close()
	}
	os.RemoveAll(sys.dir)
}

// buildInputs makes every request the reader and writer send.
func (sys *clusterSys) buildInputs() error {
	byID := map[string]int{}
	for i, cn := range sys.nodes {
		byID[cn.id] = i
	}
	for _, ix := range sys.ingest {
		ix.owners = ix.owners[:0]
		for _, p := range sys.nodes[0].node.Owners(ix.key) {
			ix.owners = append(ix.owners, byID[p.ID])
		}
		if len(ix.owners) != 2 {
			return fmt.Errorf("%s has %d owners, want 2", ix.key, len(ix.owners))
		}
	}
	// Writers post round-robin over the nodes, so the share of batches a
	// non-owner forwards is a property of the ring, not of the seed.
	for i, ix := range sys.ingest {
		ix.target = i % clusterNodes
	}
	shapes, err := planShapes(sys.static, readShapesTotal/len(sys.static), sys.rng)
	if err != nil {
		return err
	}
	sys.shapes = shapes
	sys.reads = make([][]*http.Request, len(sys.nodes))
	for n, cn := range sys.nodes {
		for i := range shapes {
			req, err := http.NewRequest(http.MethodGet, estimateURL(cn.http.url, &shapes[i]), nil)
			if err != nil {
				return err
			}
			sys.reads[n] = append(sys.reads[n], req)
		}
	}
	zipf := rand.NewZipf(sys.rng, zipfS, 1, uint64(len(shapes)-1))
	sys.readOps = make([]int32, opSeqLen)
	for i := range sys.readOps {
		sys.readOps[i] = int32(sys.rng.Intn(len(sys.nodes))*len(shapes) + int(zipf.Uint64()))
	}
	for _, f := range sys.static {
		body, err := json.Marshal(f.st)
		if err != nil {
			return err
		}
		sys.puts = append(sys.puts, body)
	}
	sys.putOps = make([]int32, opSeqLen/putEvery+1)
	for i := range sys.putOps {
		sys.putOps[i] = int32(sys.rng.Intn(len(sys.nodes))*len(sys.puts) + sys.rng.Intn(len(sys.puts)))
	}
	return nil
}

// ingestStats is one measured phase.
type ingestStats struct {
	rounds    []roundSpan
	acks      []int64 // journaled 202 round trips, ns
	depths    []int64 // IngestResponse.depth
	refs      int64
	sheds     int64
	reads     []int64     // estimate round trips, ns
	readAt    []time.Time // completion of each read
	proxied   int64
	cached    int64
	bodyBytes int64
	puts      []int64
}

// roundSpan is one writer round, from its first batch until its last
// refit is visible on both owners: the window the per-round medians are
// taken over.
type roundSpan struct {
	start, end time.Time
	refs       int64
	acks       []int64
}

// perRound returns, for each round, the ingest rate, the ingest ack p50
// (µs), and the reader's rate and p50 (µs) over the reads that completed
// in it.
func (st *ingestStats) perRound() (ingestRate, ackP50, readRate, readP50 []float64) {
	for _, r := range st.rounds {
		ingestRate = append(ingestRate, float64(r.refs)/r.end.Sub(r.start).Seconds())
		ackP50 = append(ackP50, percentile(append([]int64(nil), r.acks...), 0.5)/1e3)
		lo := sort.Search(len(st.readAt), func(i int) bool { return !st.readAt[i].Before(r.start) })
		hi := sort.Search(len(st.readAt), func(i int) bool { return !st.readAt[i].Before(r.end) })
		if hi > lo {
			readRate = append(readRate, float64(hi-lo)/r.end.Sub(r.start).Seconds())
			readP50 = append(readP50, percentile(append([]int64(nil), st.reads[lo:hi]...), 0.5)/1e3)
		}
	}
	return ingestRate, ackP50, readRate, readP50
}

// loadGen owns the reader and writer goroutines' state across phases.
type loadGen struct {
	sys       *clusterSys
	rep       *report
	tr        *http.Transport // reader and writer, one keep-alive connection each per node
	poll      *http.Client    // republish visibility checks
	round     int
	readPos   int
	putPos    int
	buf       []byte
	wbuf      []byte
	est       *opClass
	put       *opClass
	ing       *opClass
	republish *opClass
}

func (d *loadGen) phase(dur time.Duration, measured bool, rec *recorder) (*ingestStats, error) {
	// The reader and the writer fill disjoint fields of st.
	st := &ingestStats{}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.reader(&stop, measured, rec, st)
	}()
	deadline := time.Now().Add(dur)
	var err error
	for first := true; first || time.Now().Before(deadline); first = false {
		if err = d.writeRound(measured, rec, st); err != nil {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	return st, err
}

// writeRound streams one window per index, interleaved batch by batch,
// then waits until every index's refit is visible, and bit-exact with the
// offline fit, on both owners.
func (d *loadGen) writeRound(measured bool, rec *recorder, st *ingestStats) error {
	c := d.round % 2
	d.round++
	sys := d.sys
	start := time.Now()
	ack0 := len(st.acks)
	var refs int64
	for b := range sys.ingest[0].bodies[c] {
		for _, ix := range sys.ingest {
			ok, err := d.postIngest(ix, ix.bodies[c][b], measured, rec, st)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("ingest batch for %s not accepted", ix.key)
			}
			refs += ingestBatchRefs
		}
	}
	for _, ix := range sys.ingest {
		ok := d.awaitRepublish(ix, ix.fits[c])
		if measured {
			if ok {
				d.republish.ok()
			} else {
				d.republish.fail()
			}
		}
	}
	end := time.Now()
	if measured {
		st.rounds = append(st.rounds, roundSpan{start: start, end: end, refs: refs,
			acks: append([]int64(nil), st.acks[ack0:]...)})
		st.refs += refs
	}
	return nil
}

// postIngest sends one batch, retrying 429 sheds; each shed is a failed
// attempt.
func (d *loadGen) postIngest(ix *ingestIndex, body []byte, measured bool, rec *recorder, st *ingestStats) (bool, error) {
	u := d.sys.nodes[ix.target].http.url + "/v1/ingest"
	for attempt := 0; attempt < 200; attempt++ {
		req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/json")
		var sp span
		if rec != nil {
			sp = rec.clientSpan("client.ingest", req.Header)
		}
		t0 := time.Now()
		resp, err := d.tr.RoundTrip(req)
		status := 0
		if err == nil {
			status = resp.StatusCode
			d.wbuf, err = readBody(resp, d.wbuf)
		}
		lat := time.Since(t0)
		if rec != nil {
			rec.finish(sp)
		}
		if err == nil && status == http.StatusAccepted {
			var ack service.IngestResponse
			if jerr := json.Unmarshal(d.wbuf, &ack); jerr != nil || !ack.Journaled || ack.Queued != ingestBatchRefs {
				d.rep.mismatch("ingest ack for %s: %.200s", ix.key, d.wbuf)
			}
			if measured {
				d.ing.ok()
				st.acks = append(st.acks, int64(lat))
				st.depths = append(st.depths, int64(ack.Depth))
			}
			return true, nil
		}
		if measured {
			d.ing.fail()
			if status == http.StatusTooManyRequests {
				st.sheds++
			}
		}
		time.Sleep(ingestRetryPause)
	}
	return false, nil
}

// fetchEntry reads an index's canonical entry payload from one node.
func (d *loadGen) fetchEntry(node int, ix *ingestIndex) ([]byte, *stats.IndexStats, error) {
	resp, err := d.poll.Get(d.sys.nodes[node].http.url + cluster.PathEntryPrefix + url.PathEscape(ix.key))
	if err != nil {
		return nil, nil, err
	}
	body, err := readBody(resp, nil)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("entry %s: status %d", ix.key, resp.StatusCode)
	}
	c, err := stats.Load(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	e, err := c.Get(ix.meta.Table, ix.meta.Column)
	return body, e, err
}

// awaitRepublish polls both owners until each holds the expected fit and
// their payloads are byte-identical. Detection is from the entry the
// owners serve, not from the ingest scan counter, which runs ahead of the
// refit and Put.
func (d *loadGen) awaitRepublish(ix *ingestIndex, want *stats.IndexStats) bool {
	deadline := time.Now().Add(visibleTimeout)
	var last string
	for {
		var payloads [2][]byte
		done := true
		for k, o := range ix.owners {
			body, e, err := d.fetchEntry(o, ix)
			if err != nil || !sameFit(e, want) {
				done = false
				if err == nil && !sameFit(e, ix.fits[0]) && !sameFit(e, ix.fits[1]) {
					last = fmt.Sprintf("%s on %s matches neither offline fit", ix.key, d.sys.nodes[o].id)
				}
				break
			}
			payloads[k] = body
		}
		if done {
			if !bytes.Equal(payloads[0], payloads[1]) {
				d.rep.mismatch("%s differs between its owners", ix.key)
				return false
			}
			return true
		}
		if time.Now().After(deadline) {
			if last == "" {
				last = fmt.Sprintf("%s refit not visible on both owners within %s", ix.key, visibleTimeout)
			}
			d.rep.mismatch("%s", last)
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// reader runs closed-loop estimates, with a quorum PUT every putEvery
// reads, until stop is set.
func (d *loadGen) reader(stop *atomic.Bool, measured bool, rec *recorder, st *ingestStats) {
	sys := d.sys
	ns := len(sys.shapes)
	var one [1]float64
	for !stop.Load() {
		op := sys.readOps[d.readPos%len(sys.readOps)]
		d.readPos++
		node, si := int(op)/ns, int(op)%ns
		req := sys.reads[node][si]
		var sp span
		if rec != nil {
			req = req.Clone(req.Context())
			sp = rec.clientSpan("client.estimate", req.Header)
		}
		t0 := time.Now()
		resp, err := d.tr.RoundTrip(req)
		status, answeredBy := 0, ""
		if err == nil {
			status, answeredBy = resp.StatusCode, resp.Header.Get(cluster.HeaderNode)
			d.buf, err = readBody(resp, d.buf)
		}
		lat := time.Since(t0)
		if rec != nil {
			rec.finish(sp)
		}
		one[0] = sys.shapes[si].want
		ok := err == nil && status == http.StatusOK && checkFetches(d.buf, one[:])
		if err == nil && status == http.StatusOK && !ok {
			d.rep.mismatch("estimate via %s differs from the offline fit: %.200s", sys.nodes[node].id, d.buf)
		}
		if measured {
			if ok {
				d.est.ok()
				st.reads = append(st.reads, int64(lat))
				st.readAt = append(st.readAt, t0.Add(lat))
				st.cached += int64(bytes.Count(d.buf, cachedTrue))
				st.bodyBytes += int64(len(d.buf))
				if answeredBy != sys.nodes[node].id {
					st.proxied++
				}
			} else {
				d.est.fail()
			}
		}
		if d.readPos%putEvery == 0 {
			d.quorumPut(measured, rec, st)
		}
	}
}

// quorumPut re-installs one static fit through a random node. The content
// is unchanged, so every estimate stays bit-exact, while the generation
// moves and the mutation replicates to the key's owners under quorum.
func (d *loadGen) quorumPut(measured bool, rec *recorder, st *ingestStats) {
	sys := d.sys
	op := sys.putOps[d.putPos%len(sys.putOps)]
	d.putPos++
	node, fi := int(op)/len(sys.puts), int(op)%len(sys.puts)
	f := sys.static[fi].st
	req, err := http.NewRequest(http.MethodPut, sys.nodes[node].http.url+"/v1/indexes/"+
		url.PathEscape(f.Table)+"/"+url.PathEscape(f.Column), bytes.NewReader(sys.puts[fi]))
	if err != nil {
		panic(err) // the URL was valid at set-up
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if rec != nil {
		sp = rec.clientSpan("client.put", req.Header)
	}
	t0 := time.Now()
	resp, err := d.tr.RoundTrip(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
		d.buf, err = readBody(resp, d.buf)
	}
	lat := time.Since(t0)
	if rec != nil {
		rec.finish(sp)
	}
	if !measured {
		return
	}
	if err == nil && status == http.StatusOK {
		d.put.ok()
		st.puts = append(st.puts, int64(lat))
	} else {
		d.put.fail()
	}
}

func runClusterIngest(opts *options, rep *report) error {
	var rec *recorder
	if opts.trace {
		rec = newRecorder()
	}
	sys, err := timeSetups(rep, func() (*clusterSys, error) { return setupClusterIngest(opts, rec) },
		func(s *clusterSys) { s.stop() })
	if err != nil {
		return err
	}
	defer sys.stop()

	dialer := &countingDialer{}
	tr := newClientTransport(2, dialer)
	defer tr.CloseIdleConnections()
	poll := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer poll.CloseIdleConnections()
	d := &loadGen{sys: sys, rep: rep, tr: tr, poll: poll,
		est: rep.class("estimate"), put: rep.class("put"), ing: rep.class("ingest"), republish: rep.class("republish")}
	if _, err := d.phase(warmup, false, nil); err != nil {
		return err
	}
	rss := startRSS()
	p0 := sampleProc()
	st, err := d.phase(opts.untracedDur(), true, nil)
	if err != nil {
		return err
	}
	p1 := sampleProc()
	rep.metric("peak_rss_mb", rss.stopMB(), "MB")
	ingestRates, acks, rates, p50s := st.perRound()
	ingestRate, ackP50, readRate, readP50 := median(ingestRates), median(acks), median(rates), median(p50s)
	ackP99, readP99 := percentile(st.acks, 0.99)/1e3, percentile(st.reads, 0.99)/1e3
	putP50 := percentile(st.puts, 0.5) / 1e6
	rep.metric("primary_per_s", ingestRate, "1/s")
	rep.metric("primary_p50_us", ackP50, "us")
	rep.metric("secondary_per_s", readRate, "1/s")
	rep.metric("secondary_p50_us", readP50, "us")
	rep.named("ingest_refs_per_s", ingestRate, "refs/s")
	rep.named("ingest_ack_p50_ms", ackP50/1e3, "ms")
	rep.named("ingest_ack_p99_ms", ackP99/1e3, "ms")
	rep.named("estimates_per_s", readRate, "plans/s")
	rep.named("estimate_p50_us", readP50, "us")
	rep.named("estimate_p99_us", readP99, "us")
	rep.named("put_p50_ms", putP50, "ms")
	rep.named("ingest_rounds", float64(len(st.rounds)), "count")
	rep.named("ingest_acks", float64(len(st.acks)), "count")
	rep.named("estimate_samples", float64(len(st.reads)), "count")
	rep.named("put_samples", float64(len(st.puts)), "count")
	if len(st.reads) > 0 {
		rep.named("proxied_share", float64(st.proxied)/float64(len(st.reads)), "ratio")
	}
	if !opts.trace {
		return nil
	}
	rep.recordProc(p0, p1, int64(len(st.reads)+len(st.puts)+len(st.acks)))
	rep.metric("e2e.estimate_p99_us", readP99, "us")
	rep.metric("e2e.put_p50_ms", putP50, "ms")
	rep.metric("e2e.ingest_ack_p99_ms", ackP99/1e3, "ms")
	return d.traced(opts, rep, rec, dialer, ingestRate)
}

// traced runs the traced half and derives the per-layer metrics.
func (d *loadGen) traced(opts *options, rep *report, rec *recorder, dialer *countingDialer, untracedRate float64) error {
	sys := d.sys
	before, err := sys.scrape(d.poll)
	if err != nil {
		return err
	}
	var lsn0, lsn1 uint64
	for _, cn := range sys.nodes {
		lsn0 += cn.store.WALStatsNow().LSN
	}
	rec.on.Store(true)
	st, err := d.phase(opts.tracedDur(), true, rec)
	rec.on.Store(false)
	if err != nil {
		return err
	}
	for _, cn := range sys.nodes {
		lsn1 += cn.store.WALStatsNow().LSN
	}
	after, err := sys.scrape(d.poll)
	if err != nil {
		return err
	}
	tracedRates, _, _, _ := st.perRound()
	rate := median(tracedRates)
	rep.metric("trace.overhead_pct", 100*(untracedRate-rate)/untracedRate, "%")

	ix := indexSpans(rec.spans())
	rep.metric("transport.estimate_us", ix.transportP50("client.estimate"), "us")
	rep.metric("transport.conns_dialed", float64(dialer.count.Load()), "count")
	rep.metric("service.handler_estimate_us", ix.handlerSelfP50("handler.estimate"), "us")
	rep.metric("service.handler_ingest_us", ix.handlerSelfP50("handler.ingest"), "us")
	rep.metric("service.handler_put_us", ix.handlerSelfP50("handler.put"), "us")
	reads := int64(len(st.reads))
	if reads > 0 {
		rep.metric("service.cache_hit_ratio", float64(st.cached)/float64(reads), "ratio")
		rep.metric("service.response_bytes_per_plan", float64(st.bodyBytes)/float64(reads), "B")
		rep.metric("cluster.proxied_ratio", float64(st.proxied)/float64(reads), "ratio")
	}
	hits, misses := promDelta(before, after, "epfis_cache_hits_total"), promDelta(before, after, "epfis_cache_misses_total")
	if int64(hits) != st.cached || int64(hits+misses) != reads {
		rep.mismatch("cache counters disagree with responses: /metrics hits=%v misses=%v, responses cached=%d of %d",
			hits, misses, st.cached, reads)
	}
	rep.metric("service.cache_evictions", promDelta(before, after, "epfis_cache_evictions_total"), "count")
	rep.metric("service.admission_sheds", promDelta(before, after, "epfis_admission_shed_total"), "count")
	rep.metric("service.ingest_queue_depth_p99", percentile(st.depths, 0.99), "batches")
	if n := int64(len(st.acks)) + st.sheds; n > 0 {
		rep.metric("service.ingest_shed_ratio", float64(st.sheds)/float64(n), "ratio")
	}
	rep.metric("cluster.fastacks", promDelta(before, after, "epfis_cluster_quorum_fastacks_total"), "count")
	rep.metric("cluster.replication_failures", promDelta(before, after, "epfis_cluster_replication_failures_total"), "count")
	rep.metric("cluster.handoff_queued", promDelta(before, after, "epfis_cluster_handoff_queued_total"), "count")
	rep.metric("cluster.antientropy_bytes", promDelta(before, after, "epfis_cluster_antientropy_bytes_total"), "B")

	var writes, bytesW, fsyncs, checkpoints int64
	var fsyncNs, checkpointNs []int64
	for _, cn := range sys.nodes {
		writes += cn.fs.walWrites.Load()
		bytesW += cn.fs.walBytes.Load()
		fsyncs += cn.fs.fsyncs.Load()
		checkpoints += cn.fs.checkpoints.Load()
		cn.fs.mu.Lock()
		fsyncNs = append(fsyncNs, cn.fs.fsyncNs...)
		checkpointNs = append(checkpointNs, cn.fs.checkpointNs...)
		cn.fs.mu.Unlock()
	}
	rep.metric("catalog.wal_writes", float64(writes), "count")
	if st.refs > 0 {
		rep.metric("catalog.wal_bytes_per_ref", float64(bytesW)/float64(st.refs), "B")
	}
	rep.metric("catalog.fsyncs", float64(fsyncs), "count")
	rep.metric("catalog.fsync_us_p50", percentile(fsyncNs, 0.5)/1e3, "us")
	rep.metric("catalog.fsync_us_p99", percentile(fsyncNs, 0.99)/1e3, "us")
	if fsyncs > 0 {
		rep.metric("catalog.commits_per_fsync", float64(lsn1-lsn0)/float64(fsyncs), "ratio")
	}
	rep.metric("catalog.checkpoints", float64(checkpoints), "count")
	rep.metric("catalog.checkpoint_ms", percentile(checkpointNs, 0.5)/1e6, "ms")

	// Replayed layers: Accum.Feed over the exact ingest batches and the
	// refit on each window's curve (checked against the offline fit), then
	// the serving path's inner layers.
	var feedNs, feedRefs int64
	var refitMs []float64
	for _, ixx := range sys.ingest {
		for c := range ixx.traces {
			a := lrusim.NewAccum()
			tr := ixx.traces[c]
			feedNs += rec.timed("replay.lrusim.feed", func() {
				for lo := 0; lo < len(tr); lo += ingestBatchRefs {
					a.Feed(tr[lo : lo+ingestBatchRefs])
				}
			})
			feedRefs += int64(len(tr))
			var fit *stats.IndexStats
			var ferr error
			ns := rec.timed("replay.core.refit", func() { fit, ferr = core.LRUFitFromCurve(a.Curve(), ixx.meta, core.Options{}) })
			refitMs = append(refitMs, float64(ns)/1e6)
			if ferr != nil || !sameFit(fit, ixx.fits[c]) {
				rep.mismatch("refit of %s from batch-fed curve differs from the offline LRU-Fit", ixx.key)
			}
		}
	}
	rep.metric("lrusim.feed_ns_per_ref", float64(feedNs)/float64(feedRefs), "ns")
	rep.metric("core.refit_ms", median(refitMs), "ms")
	replayServing(rep, rec, sys.shapes, sys.nodes[0].store)
	return finishTrace(opts, rep, rec, ix)
}

// scrape reads every node's /metrics.
func (sys *clusterSys) scrape(client *http.Client) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(sys.nodes))
	for i, cn := range sys.nodes {
		m, err := promCounters(client, cn.http.url)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
