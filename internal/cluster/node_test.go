package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/curvefit"
	"epfis/internal/obs"
	"epfis/internal/stats"
)

// testEntry builds a valid catalog entry (mirrors the catalog tests' helper).
func testEntry(table, column string, fmin int64) *stats.IndexStats {
	return &stats.IndexStats{
		Table: table, Column: column,
		T: 100, N: 1000, I: 100,
		BMin: 12, BMax: 100, FMin: fmin, C: 0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 12, Y: float64(fmin)}, {X: 100, Y: 100},
		}},
		GridPoints:  2,
		CollectedAt: time.Unix(0, 0).UTC(),
	}
}

// storeWith builds an in-memory store holding the given entries.
func storeWith(t *testing.T, entries ...*stats.IndexStats) *catalog.Store {
	t.Helper()
	st := catalog.NewStore()
	for _, e := range entries {
		if _, err := st.Put(e); err != nil {
			t.Fatalf("Put(%s.%s): %v", e.Table, e.Column, err)
		}
	}
	return st
}

// serveNode exposes a node's gossip and snapshot routes the way the service
// layer does, so cluster tests can run real HTTP exchanges without importing
// internal/service (which would be an import cycle).
func serveNode(t *testing.T, n *Node) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathGossip, func(w http.ResponseWriter, r *http.Request) {
		var doc Doc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Merge(doc))
	})
	mux.HandleFunc("GET "+PathSnapshot, func(w http.ResponseWriter, r *http.Request) {
		data, gen, err := n.store.ExportSnapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(HeaderNode, n.SelfID())
		w.Header().Set(HeaderEpoch, strconv.FormatUint(n.Epoch(), 10))
		w.Header().Set(HeaderGeneration, strconv.FormatUint(gen, 10))
		w.Write(data)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewNodeValidation(t *testing.T) {
	st := catalog.NewStore()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing SelfID", Config{SelfURL: "http://a", Store: st}},
		{"missing SelfURL", Config{SelfID: "a", Store: st}},
		{"missing Store", Config{SelfID: "a", SelfURL: "http://a"}},
		{"replicas too big", Config{SelfID: "a", SelfURL: "http://a", Store: st, Replicas: MaxReplicas + 1}},
		{"replicas negative", Config{SelfID: "a", SelfURL: "http://a", Store: st, Replicas: -1}},
	}
	for _, tc := range cases {
		if _, err := NewNode(tc.cfg); err == nil {
			t.Errorf("%s: NewNode succeeded, want error", tc.name)
		}
	}
	n, err := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: st})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if n.Replicas() != DefaultReplicas {
		t.Errorf("Replicas = %d, want default %d", n.Replicas(), DefaultReplicas)
	}
	if r := n.Ring(); r.Len() != 1 || r.Members()[0] != "a" {
		t.Errorf("initial ring = %v, want [a]", r.Members())
	}
}

func TestNodeEpochSemantics(t *testing.T) {
	empty, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: catalog.NewStore()})
	if empty.Epoch() != 0 {
		t.Errorf("empty node epoch = %d, want 0 (adopts the cluster's catalog)", empty.Epoch())
	}
	loaded, _ := NewNode(Config{SelfID: "b", SelfURL: "http://b",
		Store: storeWith(t, testEntry("t", "c", 500))})
	if loaded.Epoch() != 1 {
		t.Errorf("loaded node epoch = %d, want 1 (peers should pull from it)", loaded.Epoch())
	}

	if got := loaded.BumpEpoch(); got != 2 {
		t.Errorf("BumpEpoch = %d, want 2", got)
	}
	loaded.ObserveEpoch(10)
	if loaded.Epoch() != 10 {
		t.Errorf("after ObserveEpoch(10): %d", loaded.Epoch())
	}
	loaded.ObserveEpoch(4) // max-fold: lower epochs are ignored
	if loaded.Epoch() != 10 {
		t.Errorf("ObserveEpoch(4) regressed epoch to %d", loaded.Epoch())
	}
}

func TestNodeMergeDiscoversMembersAndRebuildsRing(t *testing.T) {
	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a",
		Store: catalog.NewStore(), Replicas: 2})
	reply := n.Merge(Doc{
		Self: NodeInfo{ID: "b", URL: "http://b", Generation: 2, Epoch: 0, CatalogHash: ""},
		Members: []NodeInfo{
			{ID: "b", URL: "http://b"},
			{ID: "c", URL: "http://c"},
			{ID: "a", URL: "http://a"}, // self in the member list is ignored
		},
	})

	if got := n.Ring().Members(); len(got) != 3 {
		t.Fatalf("ring members after merge = %v, want a,b,c", got)
	}
	if reply.Self.ID != "a" || reply.Replicas != 2 {
		t.Errorf("merge reply self = %+v, replicas = %d", reply.Self, reply.Replicas)
	}
	// The reply's member list carries everyone for onward discovery.
	ids := map[string]bool{}
	for _, m := range reply.Members {
		ids[m.ID] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !ids[want] {
			t.Errorf("merge reply members missing %s: %+v", want, reply.Members)
		}
	}
	// Direct contact marked b alive; c is known but never heard from.
	if p, _ := n.mem.Peer("b"); p.State != StateAlive || p.Generation != 2 {
		t.Errorf("peer b after merge = %+v", p)
	}

	// Owners covers self with a synthesized alive record.
	for _, k := range []string{"t.a", "t.b", "u.c", "v.d"} {
		owners := n.Owners(k)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q) = %v, want 2 entries", k, owners)
		}
		for _, o := range owners {
			if o.ID == "a" && o.URL != "http://a" {
				t.Errorf("self owner entry lost URL: %+v", o)
			}
		}
		if n.Owns(k) != (owners[0].ID == "a" || owners[1].ID == "a") {
			t.Errorf("Owns(%q) disagrees with Owners", k)
		}
	}
}

// Concurrent merges that each discover a new member must leave the ring
// holding every member: a rebuild from an older member set must never be
// stored over a newer one.
func TestNodeConcurrentMergesKeepNewestRing(t *testing.T) {
	const peers = 16
	for round := 0; round < 20; round++ {
		n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a",
			Store: catalog.NewStore(), Replicas: 2})
		var wg sync.WaitGroup
		for i := 0; i < peers; i++ {
			id := "p" + strconv.Itoa(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.Merge(Doc{Self: NodeInfo{ID: id, URL: "http://" + id}})
			}()
		}
		wg.Wait()
		if got := n.Ring().Len(); got != peers+1 {
			t.Fatalf("round %d: ring has %d members after %d concurrent merges, want %d",
				round, got, peers, peers+1)
		}
	}
}

func TestNodeGossipRoundTripAndSnapshotPull(t *testing.T) {
	// Source node: has statistics, epoch 1.
	src, err := NewNode(Config{SelfID: "src", SelfURL: "http://src",
		Store: storeWith(t, testEntry("orders", "o_custkey", 500), testEntry("lineitem", "l_partkey", 450))})
	if err != nil {
		t.Fatal(err)
	}
	srcSrv := serveNode(t, src)
	src.cfg.SelfURL = srcSrv.URL // advertise the live listener

	// Recovering node: empty store, seeds point at the source.
	dst, err := NewNode(Config{SelfID: "dst", SelfURL: "http://dst",
		Store: catalog.NewStore(), Seeds: []string{srcSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}

	dst.Tick(context.Background())
	if dst.Rounds() != 1 {
		t.Errorf("Rounds = %d, want 1", dst.Rounds())
	}
	// Gossip discovered the source...
	if p, ok := dst.mem.Peer("src"); !ok || p.State != StateAlive {
		t.Fatalf("source not discovered alive: %+v ok=%v", p, ok)
	}
	// ...and the epoch/hash gap triggered an async snapshot pull.
	waitUntil(t, 5*time.Second, "snapshot pull", func() bool {
		ok, _ := dst.Pulls()
		return ok == 1
	})
	if dst.store.Len() != 2 {
		t.Fatalf("imported store has %d entries, want 2", dst.store.Len())
	}
	if dst.Epoch() != src.Epoch() {
		t.Errorf("epoch after pull = %d, want %d", dst.Epoch(), src.Epoch())
	}
	if dh, sh := dst.CatalogHash(), src.CatalogHash(); dh != sh || dh == "" {
		t.Errorf("content hash after pull = %q, want %q", dh, sh)
	}
	// The imported statistics are bit-exact.
	got, err := dst.store.Get("orders", "o_custkey")
	if err != nil {
		t.Fatalf("Get after import: %v", err)
	}
	if got.FMin != 500 || got.T != 100 {
		t.Errorf("imported entry = %+v", got)
	}

	// Converged: another round must not pull again.
	dst.Tick(context.Background())
	waitUntil(t, time.Second, "round settle", func() bool { return dst.Rounds() == 2 })
	time.Sleep(20 * time.Millisecond)
	if ok, _ := dst.Pulls(); ok != 1 {
		t.Errorf("converged node pulled again: %d pulls", ok)
	}
}

func TestNodePullSnapshotRejectsGarbage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"not":"a snapshot"}`))
	}))
	defer srv.Close()
	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: catalog.NewStore()})
	if err := n.PullSnapshot(context.Background(), srv.URL); err == nil {
		t.Fatal("PullSnapshot accepted a stream without a checksum trailer")
	}
	if n.store.Len() != 0 {
		t.Errorf("garbage import mutated the store: %d entries", n.store.Len())
	}
}

func TestNodeEqualEpochDivergenceDoesNotPull(t *testing.T) {
	a, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a",
		Store: storeWith(t, testEntry("t", "x", 500))})
	// A peer at the same epoch with a different hash is a conflict, not a
	// pull trigger.
	a.Merge(Doc{Self: NodeInfo{ID: "b", URL: "http://b", Epoch: a.Epoch(),
		CatalogHash: "crc32c:ffffffff"}})
	time.Sleep(20 * time.Millisecond)
	if ok, fail := a.Pulls(); ok != 0 || fail != 0 {
		t.Errorf("equal-epoch divergence triggered a pull: ok=%d fail=%d", ok, fail)
	}
}

func TestNodeMetricsExposition(t *testing.T) {
	src, _ := NewNode(Config{SelfID: "src", SelfURL: "http://src",
		Store: storeWith(t, testEntry("t", "x", 500))})
	srcSrv := serveNode(t, src)

	n, _ := NewNode(Config{SelfID: "n", SelfURL: "http://n",
		Store: catalog.NewStore(), Seeds: []string{srcSrv.URL}})
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	n.Tick(context.Background())

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`epfis_cluster_members 2`,
		`epfis_cluster_peer_up{peer="src"} 1`,
		`epfis_cluster_heartbeat_seconds_count{peer="src"} 1`,
		`epfis_cluster_gossip_rounds_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

func TestNodeHealthDocShape(t *testing.T) {
	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a",
		Store: storeWith(t, testEntry("t", "x", 500)), Replicas: 2, VNodes: 32})
	n.Merge(Doc{Self: NodeInfo{ID: "b", URL: "http://b", Epoch: 5}})
	doc := n.HealthDoc()
	if doc.Self.ID != "a" || doc.Self.Epoch != n.Epoch() || doc.Self.CatalogHash == "" {
		t.Errorf("HealthDoc self = %+v", doc.Self)
	}
	if doc.Replicas != 2 || doc.VNodes != 32 {
		t.Errorf("HealthDoc R/vnodes = %d/%d", doc.Replicas, doc.VNodes)
	}
	if len(doc.Members) != 2 || doc.Members[0].ID != "a" {
		t.Errorf("HealthDoc members = %+v", doc.Members)
	}
	// Round-trips through JSON (the wire format).
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Self != doc.Self {
		t.Errorf("Doc did not round-trip: %+v vs %+v", back.Self, doc.Self)
	}
}

func TestStampOrderingAndRecord(t *testing.T) {
	var zero Stamp
	a1 := Stamp{Epoch: 1, Origin: "node-a"}
	b1 := Stamp{Epoch: 1, Origin: "node-b"}
	a2 := Stamp{Epoch: 2, Origin: "node-a"}
	if !zero.Less(a1) || a1.Less(zero) {
		t.Error("zero stamp must order before any real stamp")
	}
	if !a1.Less(b1) || b1.Less(a1) {
		t.Error("equal epochs must tie-break by origin, identically everywhere")
	}
	if !b1.Less(a2) || a2.Less(b1) {
		t.Error("epoch dominates origin")
	}
	if a1.Less(a1) {
		t.Error("a stamp must not order before itself (idempotent redelivery)")
	}

	n, _ := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: catalog.NewStore()})
	if n.HasKeyStamp("k") {
		t.Error("fresh node tracks no stamps")
	}
	n.RecordKeyStamp("k", b1)
	n.RecordKeyStamp("k", a1) // older by tiebreak: must not regress
	if got := n.KeyStamp("k"); got != b1 {
		t.Errorf("KeyStamp after regressing record = %+v, want %+v", got, b1)
	}
	n.RecordKeyStamp("k", a2)
	if got := n.KeyStamp("k"); got != a2 {
		t.Errorf("KeyStamp after advancing record = %+v, want %+v", got, a2)
	}
	if !n.HasKeyStamp("k") || n.HasKeyStamp("other") {
		t.Error("HasKeyStamp must reflect exactly the recorded keys")
	}
	if got := n.KeyStamps(); len(got) != 1 || got["k"] != a2 {
		t.Errorf("KeyStamps = %+v", got)
	}
}
