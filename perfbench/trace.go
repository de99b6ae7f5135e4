package main

// Tracing from outside the program. Spans are recorded only at the
// program's existing public seams — the HTTP client, a wrapper around
// Server.Handler() on the benchmark's own http.Server, a wrapper around the
// cluster's outbound transport (service.Config.Transport and the node's
// HTTP client), and a counting faultfs.FS under the WAL store — plus around
// layer calls the benchmark replays itself. Inter-node hops are linked
// through the W3C traceparent the program already propagates: a handler's
// parent is the span id its inbound traceparent names, which is either the
// benchmark's client span or the hop span the sending node's transport
// carried.

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"epfis/internal/cluster"
	"epfis/internal/faultfs"
	"epfis/internal/obs"
)

// span is one recorded interval. Times are nanoseconds since the recorder's
// base. trace is the W3C trace id; hop spans get their parent at analysis.
type span struct {
	name       string
	trace      [16]byte
	id, parent uint64
	node       int
	start, end int64
	bytes      int64
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder holds spans in memory until the run ends. Recording is off
// until on is set, so one process can run an untraced phase and then a
// traced one over the same wiring.
type recorder struct {
	on   atomic.Bool
	base time.Time
	mu   sync.Mutex
	all  []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

// spans returns the recorded spans (the run has stopped recording).
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all
}

// timed records one replayed layer call as a root span.
func (r *recorder) timed(name string, fn func()) int64 {
	s := span{name: name, id: randUint64(), start: r.now()}
	fn()
	s.end = r.now()
	r.add(s)
	return s.dur()
}

// randUint64 draws a non-zero span or trace id.
func randUint64() uint64 { return rand.Uint64() | 1 }

// clientSpan starts a client request span and sets its traceparent on h.
func (r *recorder) clientSpan(name string, h http.Header) span {
	s := span{name: name, id: randUint64(), node: -1}
	binary.LittleEndian.PutUint64(s.trace[:8], randUint64())
	binary.LittleEndian.PutUint64(s.trace[8:], randUint64())
	var sid [8]byte
	binary.BigEndian.PutUint64(sid[:], s.id)
	h.Set(obs.TraceparentHeader, "00-"+hex.EncodeToString(s.trace[:])+"-"+hex.EncodeToString(sid[:])+"-01")
	s.start = r.now()
	return s
}

// finish closes a span and records it.
func (r *recorder) finish(s span) {
	s.end = r.now()
	r.add(s)
}

// parseTP extracts trace id and span id from a traceparent header.
func parseTP(v string) (trace [16]byte, id uint64, ok bool) {
	tp, ok := obs.ParseTraceparent(v)
	if !ok {
		return trace, 0, false
	}
	return tp.Trace, binary.BigEndian.Uint64(tp.Span[:]), true
}

// handlerKind names the handler span of a request as the node sees it.
// Forwarded and replicated arrivals are told apart from client-facing ones
// so a client route's self time is not mixed with a peer's hop.
func handlerKind(r *http.Request) string {
	if r.Header.Get(cluster.HeaderForwarded) != "" {
		return "handler.forwarded"
	}
	if r.Header.Get(cluster.HeaderReplicated) != "" {
		return "handler.replicated"
	}
	p := r.URL.Path
	switch {
	case p == "/v1/estimate":
		return "handler.estimate"
	case p == "/v1/estimate/batch":
		return "handler.batch"
	case p == "/v1/ingest":
		return "handler.ingest"
	case strings.HasPrefix(p, "/v1/indexes/") && r.Method == http.MethodPut:
		return "handler.put"
	}
	return "handler.other"
}

// traceHandler wraps a node's handler with a span per request.
func (r *recorder) traceHandler(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		s := span{name: handlerKind(req), id: randUint64(), node: node, start: r.now()}
		if tr, pid, ok := parseTP(req.Header.Get(obs.TraceparentHeader)); ok {
			s.trace, s.parent = tr, pid
		}
		h.ServeHTTP(w, req)
		r.finish(s)
	})
}

// hopKind classifies an outbound inter-node request.
func hopKind(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == cluster.PathGossip:
		return "gossip"
	case p == cluster.PathDigest:
		return "digest"
	case strings.HasPrefix(p, cluster.PathEntryPrefix):
		return "entry"
	case p == cluster.PathSnapshot:
		return "snapshot"
	case req.Header.Get(cluster.HeaderReplicated) != "":
		return "replicate"
	case p == "/v1/ingest":
		return "ingest_forward"
	case strings.HasPrefix(p, "/v1/estimate"):
		return "proxy"
	}
	return "other"
}

// hopTransport wraps one node's outbound cluster transport. A hop span
// runs from the request until its response body is closed.
type hopTransport struct {
	rec   *recorder
	node  int
	inner http.RoundTripper
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.inner.RoundTrip(req)
	}
	s := span{name: "hop." + hopKind(req), node: t.node, start: t.rec.now()}
	if tr, id, ok := parseTP(req.Header.Get(obs.TraceparentHeader)); ok {
		s.trace, s.id = tr, id
	} else {
		s.id = randUint64()
	}
	if req.ContentLength > 0 {
		s.bytes = req.ContentLength
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.finish(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	return n, err
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.finish(b.s) })
	return err
}

// countFS is the faultfs.FS the traced cluster's WAL stores run on: the
// real filesystem, with the log's appends and fsyncs counted and timed and
// each checkpoint (catalog temp file through its rename) timed.
type countFS struct {
	inner faultfs.FS
	rec   *recorder
	node  int

	walWrites, walBytes, fsyncs, checkpoints atomic.Int64
	mu                                       sync.Mutex
	tempStart                                map[string]int64
	fsyncNs, checkpointNs                    []int64
}

func newCountFS(rec *recorder, node int) *countFS {
	return &countFS{inner: faultfs.OS(), rec: rec, node: node, tempStart: map[string]int64{}}
}

func (f *countFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }
func (f *countFS) Truncate(name string, size int64) error {
	return f.inner.Truncate(name, size)
}
func (f *countFS) Remove(name string) error { return f.inner.Remove(name) }
func (f *countFS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }
func (f *countFS) traced() bool             { return f.rec.on.Load() }
func (f *countFS) isWAL(name string) bool   { return strings.HasSuffix(name, ".wal") }
func (f *countFS) record(name string, start int64) {
	f.rec.finish(span{name: name, id: randUint64(), node: f.node, start: start})
}

func (f *countFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	start := f.rec.now()
	file, err := f.inner.CreateTemp(dir, pattern)
	if err == nil && f.traced() {
		f.mu.Lock()
		f.tempStart[file.Name()] = start
		f.mu.Unlock()
	}
	return file, err
}

func (f *countFS) Rename(oldpath, newpath string) error {
	err := f.inner.Rename(oldpath, newpath)
	f.mu.Lock()
	start, ok := f.tempStart[oldpath]
	delete(f.tempStart, oldpath)
	f.mu.Unlock()
	if ok && err == nil && !f.isWAL(newpath) {
		f.checkpoints.Add(1)
		end := f.rec.now()
		f.mu.Lock()
		f.checkpointNs = append(f.checkpointNs, end-start)
		f.mu.Unlock()
		f.record("fs.checkpoint", start)
	}
	return err
}

func (f *countFS) OpenAppend(name string) (faultfs.File, error) {
	file, err := f.inner.OpenAppend(name)
	if err != nil || !f.isWAL(name) {
		return file, err
	}
	return &countFile{File: file, fs: f}, nil
}

// countFile is one WAL handle.
type countFile struct {
	faultfs.File
	fs *countFS
}

func (c *countFile) Write(p []byte) (int, error) {
	if !c.fs.traced() {
		return c.File.Write(p)
	}
	start := c.fs.rec.now()
	n, err := c.File.Write(p)
	c.fs.walWrites.Add(1)
	c.fs.walBytes.Add(int64(n))
	c.fs.record("fs.wal_write", start)
	return n, err
}

func (c *countFile) Sync() error {
	if !c.fs.traced() {
		return c.File.Sync()
	}
	start := c.fs.rec.now()
	err := c.File.Sync()
	end := c.fs.rec.now()
	c.fs.fsyncs.Add(1)
	c.fs.mu.Lock()
	c.fs.fsyncNs = append(c.fs.fsyncNs, end-start)
	c.fs.mu.Unlock()
	c.fs.record("fs.fsync", start)
	return err
}

// countingDialer counts the client's TCP connections.
type countingDialer struct {
	d     net.Dialer
	count atomic.Int64
}

func (c *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c.count.Add(1)
	return c.d.DialContext(ctx, network, addr)
}

// newClientTransport is the benchmark's keep-alive client: one connection
// per client goroutine, no compression, no proxy.
func newClientTransport(conns int, dialer *countingDialer) *http.Transport {
	return &http.Transport{
		DialContext:         dialer.DialContext,
		MaxIdleConns:        conns * 4,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// promCounters fetches a node's Prometheus exposition and sums every
// sample of each metric family over its label sets.
func promCounters(client *http.Client, baseURL string) (map[string]float64, error) {
	resp, err := client.Get(baseURL + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// promDelta sums after − before over every node for one family.
func promDelta(before, after []map[string]float64, name string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][name] - before[i][name]
	}
	return d
}

// spanIndex groups recorded spans for self-time analysis.
type spanIndex struct {
	spans    []span
	byParent map[uint64][]int // handler spans by inbound parent span id
	hops     map[string][]int // hop spans by trace id + node
}

func keyTN(trace [16]byte, node int) string { return string(trace[:]) + strconv.Itoa(node) }

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, byParent: map[uint64][]int{}, hops: map[string][]int{}}
	for i := range spans {
		s := &spans[i]
		switch {
		case strings.HasPrefix(s.name, "handler.") && s.parent != 0:
			ix.byParent[s.parent] = append(ix.byParent[s.parent], i)
		case strings.HasPrefix(s.name, "hop."):
			k := keyTN(s.trace, s.node)
			ix.hops[k] = append(ix.hops[k], i)
		}
	}
	return ix
}

// selfTime is a handler span's duration minus the union of the hop spans
// its node sent within it for the same trace.
func (ix *spanIndex) selfTime(h *span) int64 {
	var iv [][2]int64
	for _, j := range ix.hops[keyTN(h.trace, h.node)] {
		c := &ix.spans[j]
		lo, hi := max(c.start, h.start), min(c.end, h.end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, v := range iv {
		if v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return h.dur() - covered
}

// handlerSelfP50 is the median self time of the named handler spans, µs.
func (ix *spanIndex) handlerSelfP50(name string) float64 {
	var xs []int64
	for i := range ix.spans {
		if ix.spans[i].name == name {
			xs = append(xs, ix.selfTime(&ix.spans[i]))
		}
	}
	return percentile(xs, 0.5) / 1e3
}

// transportP50 is the median of a client span's duration minus its
// first-node handler span, µs: the socket, the HTTP codec on both sides
// and scheduling, everything but the handler.
func (ix *spanIndex) transportP50(clientName string) float64 {
	var xs []int64
	for i := range ix.spans {
		c := &ix.spans[i]
		if c.name != clientName {
			continue
		}
		for _, j := range ix.byParent[c.id] {
			xs = append(xs, c.dur()-ix.spans[j].dur())
		}
	}
	return percentile(xs, 0.5) / 1e3
}

// recordHops reports per-kind hop counts, median durations and bytes.
func (ix *spanIndex) recordHops(r *report) {
	for _, k := range hopKinds {
		var durs []int64
		var bytes int64
		for i := range ix.spans {
			if ix.spans[i].name == "hop."+k {
				durs = append(durs, ix.spans[i].dur())
				bytes += ix.spans[i].bytes
			}
		}
		r.metric("cluster.hops."+k, float64(len(durs)), "count")
		r.metric("cluster.hop_us."+k, percentile(durs, 0.5)/1e3, "us")
		r.metric("cluster.hop_bytes."+k, float64(bytes), "B")
	}
}

// spanDumpLimit bounds the spans written out per run.
const spanDumpLimit = 100_000

// dumpSpans writes up to spanDumpLimit spans as JSON lines into dir, hop
// spans with the parent resolved to their sending node's handler span.
func dumpSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	handlerOf := map[string]uint64{}
	for i := range spans {
		s := &spans[i]
		if strings.HasPrefix(s.name, "handler.") {
			handlerOf[keyTN(s.trace, s.node)] = s.id
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type row struct {
		Name   string `json:"name"`
		Trace  string `json:"trace,omitempty"`
		ID     string `json:"id"`
		Parent string `json:"parent,omitempty"`
		Node   int    `json:"node"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Bytes  int64  `json:"bytes,omitempty"`
	}
	hexID := func(v uint64) string {
		if v == 0 {
			return ""
		}
		return strconv.FormatUint(v, 16)
	}
	for i := range spans {
		if i == spanDumpLimit {
			break
		}
		s := &spans[i]
		parent := s.parent
		if strings.HasPrefix(s.name, "hop.") {
			parent = handlerOf[keyTN(s.trace, s.node)]
		}
		rw := row{Name: s.name, ID: hexID(s.id), Parent: hexID(parent), Node: s.node,
			Start: s.start, End: s.end, Bytes: s.bytes}
		if s.trace != ([16]byte{}) {
			rw.Trace = hex.EncodeToString(s.trace[:])
		}
		if err := enc.Encode(rw); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
