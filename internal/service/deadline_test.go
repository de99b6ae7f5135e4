package service

// The request-deadline contract: one deadline per request, start +
// RequestTimeout, bounding the waits — body reads and proxy hops — and
// nothing else. A wait that runs out of time answers 503
// {"error":"request timed out"}; local work that finishes late reports its
// real outcome.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/faultnet"
)

const timedOutBody = `{"error":"request timed out"}`

// postEstimateBatch sends one 64-plan batch and returns the status.
func postEstimateBatch(t *testing.T, c *http.Client, url string, body []byte) int {
	t.Helper()
	resp, err := c.Post(url+"/v1/estimate/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// stallBody sends a request's headers and half its body, then stalls.
func stallBody(t *testing.T, addr, method, path string, body []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: epfis\r\n"+
		"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, path, len(body), body[:len(body)/2])
	return conn
}

// readResponse reads one response off a raw connection, giving up after 5s.
func readResponse(t *testing.T, conn net.Conn, what string) (int, string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(raw)
}

// expectTimedOut reads the stalled request's answer: 503 request timed out.
func expectTimedOut(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	if status, body := readResponse(t, conn, what); status != http.StatusServiceUnavailable || body != timedOutBody {
		t.Fatalf("%s = %d %q, want 503 %s", what, status, body, timedOutBody)
	}
}

// A client that sends batch headers and then stalls its body must give its
// admission slot back once the request deadline passes: the body read runs
// under the deadline, so the handler returns instead of blocking until the
// client hangs up. JSON-bodied routes (PUT) read under the same deadline.
func TestDeadlineStalledBody(t *testing.T) {
	const timeout = 200 * time.Millisecond
	store := catalog.NewStore()
	st := fitStats(t, "orders", "key", 1)
	if _, err := store.Put(st); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, MaxInflight: 1, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // after the stalled connections close (cleanups run last-in first)
	body := batch64Body(t)

	stalledAt := time.Now()
	conn := stallBody(t, ts.Listener.Addr().String(), http.MethodPost, "/v1/estimate/batch", body)
	for len(srv.inflight[routeBatch]) == 0 {
		if time.Since(stalledAt) > timeout/2 {
			t.Fatal("the stalled request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	// While the stalled request holds the route's only slot, batches shed.
	if status := postEstimateBatch(t, ts.Client(), ts.URL, body); status != http.StatusTooManyRequests {
		t.Fatalf("batch beside the stall = %d, want 429", status)
	}
	// A shed request never reads its body; a stalled one must not hold its
	// connection open past the deadline either.
	shed := stallBody(t, ts.Listener.Addr().String(), http.MethodPost, "/v1/estimate/batch", body)
	if status, _ := readResponse(t, shed, "shed stalled batch"); status != http.StatusTooManyRequests {
		t.Fatalf("stalled batch beside the stall = %d, want 429", status)
	}
	if n, err := shed.Read(make([]byte, 1)); err == nil {
		t.Fatalf("shed stalled connection still open: read %d bytes", n)
	}

	// Once the deadline passes the slot is free again.
	for postEstimateBatch(t, ts.Client(), ts.URL, body) != http.StatusOK {
		if time.Since(stalledAt) > 5*timeout {
			t.Fatalf("batches still shed %v after a stalled body; deadline is %v", time.Since(stalledAt), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	expectTimedOut(t, conn, "stalled batch")

	put := stallBody(t, ts.Listener.Addr().String(), http.MethodPut, "/v1/indexes/orders/key", mustMarshal(t, st))
	expectTimedOut(t, put, "stalled PUT")
}

// The recorder unwraps, so http.ResponseController reaches the real writer.
func TestStatusRecorderUnwrap(t *testing.T) {
	inner := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: inner}
	if err := http.NewResponseController(rec).Flush(); err != nil {
		t.Fatalf("Flush through the recorder: %v", err)
	}
	if !inner.Flushed {
		t.Fatal("Flush did not reach the wrapped writer")
	}
}

// ownedKey returns a column of table "orders" whose ring owners include
// (want) or exclude (!want) node n.
func ownedKey(t *testing.T, n *fnode, want bool) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		col := fmt.Sprintf("c%d", i)
		if n.node.Owns("orders."+col) == want {
			return col
		}
	}
	t.Fatalf("no key with owns=%v for %s", want, n.id)
	return ""
}

// A proxied estimate whose owners are all slower than the request deadline
// answers 503 request timed out after one timeout in total: every owner
// attempt shares the request's single deadline.
func TestDeadlineSlowOwners(t *testing.T) {
	const timeout = 400 * time.Millisecond
	nodes := startFaultCluster(t, 3, 2, func(c *Config) { c.RequestTimeout = timeout })
	a := nodes[0]
	col := ownedKey(t, a, false)
	putIndex(t, a.cnode, fitStats(t, "orders", col, 3))

	a.inj.Add(faultnet.Rule{
		Op:    faultnet.OpRequest,
		Route: "/v1/estimate",
		Count: -1,
		Mode:  faultnet.ModeSlow,
		Delay: 10 * timeout, // jitter keeps it in [5, 10] timeouts
	})
	start := time.Now()
	resp, err := a.ts.Client().Get(a.url + "/v1/estimate?table=orders&column=" + col + "&b=64&sigma=0.05")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable || string(raw) != timedOutBody {
		t.Fatalf("proxied estimate with slow owners = %d %q, want 503 %s", resp.StatusCode, raw, timedOutBody)
	}
	if elapsed < timeout || elapsed > timeout*3/2 {
		t.Fatalf("timed out after %v, want about one %v deadline (two owners must not cost two)", elapsed, timeout)
	}
	if got := a.srv.cobs.proxyFailures.Value(); got != 1 {
		t.Fatalf("proxy failures = %d, want 1", got)
	}
}

// A PUT whose quorum lands after the request deadline reports its real
// outcome — the write committed, so 200 — not a 503 racing the commit.
func TestDeadlinePutReportsOutcome(t *testing.T) {
	const timeout = 200 * time.Millisecond
	nodes := startFaultCluster(t, 3, 2, func(c *Config) {
		c.RequestTimeout = timeout
		c.ReplicateTimeout = 20 * timeout
	})
	a := nodes[0]
	col := ownedKey(t, a, true)
	var peer *fnode
	for _, p := range a.node.Owners("orders." + col) {
		for _, n := range nodes[1:] {
			if n.id == p.ID {
				peer = n
			}
		}
	}
	if peer == nil {
		t.Fatalf("orders.%s has no second owner", col)
	}
	// The majority quorum of two owners needs the peer's ack, and every
	// send to it crawls past the request deadline.
	a.inj.Add(faultnet.Rule{
		Op:    faultnet.OpRequest,
		Peer:  peer.host(),
		Route: "/v1/indexes/",
		Count: -1,
		Mode:  faultnet.ModeSlow,
		Delay: 6 * timeout, // jitter keeps it in [3, 6] timeouts
	})
	start := time.Now()
	status, body := rawMutate(t, a.cnode, http.MethodPut, "/v1/indexes/orders/"+col,
		mustMarshal(t, fitStats(t, "orders", col, 5)))
	elapsed := time.Since(start)
	if status != http.StatusOK || !strings.Contains(body, `"generation"`) {
		t.Fatalf("slow-quorum PUT = %d %s, want 200 with its generation", status, body)
	}
	if elapsed < timeout {
		t.Fatalf("PUT took %v, want past the %v deadline for this drill to mean anything", elapsed, timeout)
	}
	for _, n := range []*fnode{a, peer} {
		if _, err := n.store.Get("orders", col); err != nil {
			t.Fatalf("%s missing the acknowledged entry: %v", n.id, err)
		}
	}
}
