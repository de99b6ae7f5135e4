GO ?= go

.PHONY: build test race chaos chaos-net cluster-check bench bench-json bench-serve bench-ingest bench-cluster bench-smoke perfbench fuzz obs-check serve vet all

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-test the concurrent subsystems (catalog store + estimation service,
# plus the mergeable incremental simulator the ingest worker feeds).
race:
	$(GO) test -race ./internal/catalog/... ./internal/cluster/... ./internal/lrusim/... ./internal/service/... ./cmd/epfis-serve/...

# Resilience drills under the race detector: fault injection on every catalog
# write path mid-traffic (including WAL append/fsync/checkpoint faults under
# concurrent ingest + readers), commit-abort and recovery invariants, overload
# shedding, breaker/degraded behaviour, plus recovery fuzz smokes for both the
# legacy rename store and the WAL log.
chaos:
	$(GO) test -race ./internal/faultfs/ ./internal/resilience/
	$(GO) test -race -run 'TestChaos|TestOverload|TestDeleted|TestHealthz|TestCommitAborts|TestFsync|TestOpenRecovers|TestReload|TestWAL' \
		./internal/catalog/ ./internal/service/
	$(GO) test -run=Fuzz -fuzz=FuzzOpenCatalogStore -fuzztime=20s ./internal/catalog/
	$(GO) test -run=Fuzz -fuzz=FuzzWALRecovery -fuzztime=20s ./internal/catalog/

# Network partition drills under the race detector: the deterministic fault
# injector itself, then the jepsen-lite convergence drill — partition a 3-node
# cluster while both sides take writes and ingest, heal, and require every
# store to converge to one content hash with bit-exact estimates — plus the
# hinted-handoff restart, epoch-guard, ingest-routing, and WAL ingest-journal
# crash-replay proofs, and the request-deadline drills (stalled bodies, slow
# proxy owners, a PUT whose quorum lands past its deadline).
chaos-net:
	$(GO) test -race ./internal/faultnet/
	$(GO) test -race -run 'TestClusterPartition|TestAsymmetricPartition|TestReplicatedDeleteEpochGuard|TestHandoffJournal|TestClusterIngestOwnership|TestIngestJournal|TestDeadline' \
		./internal/service/
	$(GO) test -race -run 'TestWALIngestJournal' ./internal/catalog/

# Service throughput: single estimates vs 64-plan batches, 1 and 4 cores.
bench:
	$(GO) test -bench=ServiceEstimate -cpu 1,4 -run=NONE ./cmd/epfis-serve/

# Tracked perf baseline: pooled-simulator and Measure microbenchmarks, the
# warm-cache sweep, and full-suite wall-clock at -parallel 1/4, written as
# BENCH_experiments.json (see README "Benchmarks and the perf baseline").
bench-json:
	$(GO) run ./cmd/epfis-bench -out BENCH_experiments.json

# Serving-path baseline: handler-level single/cache-hit/cache-miss/batch64/
# parallel benchmarks written as BENCH_serve.json. Exits non-zero when
# allocs/op exceed the committed budgets (the CI alloc gate; see README
# "Performance").
bench-serve:
	$(GO) run ./cmd/epfis-bench -suite serve -out BENCH_serve.json

# Ingestion-path baseline: WAL group-commit vs legacy rename mutation
# throughput, Accum feed/merge cost, and POST /v1/ingest handler latency,
# written as BENCH_ingest.json. Exits non-zero when the WAL speedup falls
# under -min-wal-speedup (default 10x) or Feed exceeds its alloc budget.
bench-ingest:
	$(GO) run ./cmd/epfis-bench -suite ingest -out BENCH_ingest.json

# Cluster data-plane baseline: proxied-estimate allocs, quorum PUT latency
# with a faultnet-slowed straggler peer (the fast-ack gate), and delta
# anti-entropy bytes-on-wire vs the full snapshot, measured over an
# in-process multi-node cluster and written as BENCH_cluster.json. Exits
# non-zero when any budget is breached (see README "Cluster performance").
bench-cluster:
	$(GO) run ./cmd/epfis-bench -suite cluster -out BENCH_cluster.json

# End-to-end benchmark (BENCHMARK.json): every workload once on seed 1,
# untraced, PERFBENCH_SECONDS (default 20) measured seconds each. Build and
# run state stays under .bench_build/.
PERFBENCH_SECONDS ?= 20
perfbench:
	for w in serve-mix cluster-ingest offline-fit; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds $(PERFBENCH_SECONDS) --trace 0 || exit 1; \
	done

# One-iteration pass over the perf-relevant benchmarks, as run in CI.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/lrusim/ ./internal/workload/ ./internal/experiment/

# Cluster smoke: spawn a 3-node cluster (R=2) on loopback, install an index
# through one node, verify bit-exact estimates from all three (own vs proxy),
# verify the checksummed snapshot stream imports, then kill a node and verify
# the survivors keep serving. See README "Running a cluster".
cluster-check:
	$(GO) run ./cmd/epfis-clustercheck

# Observability smoke: spin up a live service instance and check /metrics in
# both negotiated formats (the Prometheus exposition is run through the obs
# format validator), /debug/traces span breakdowns, traceparent echo, and the
# /healthz build-info fields, all over real HTTP. Point it at a running
# instance instead with `go run ./cmd/epfis-obscheck -addr localhost:8080`.
obs-check:
	$(GO) run ./cmd/epfis-obscheck

# Short fuzz passes: catalog JSON format, and store recovery from corrupt
# catalog files (run one at a time; go fuzzing allows one -fuzz per package).
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzCatalogRoundTrip -fuzztime=30s ./internal/stats/
	$(GO) test -run=Fuzz -fuzz=FuzzOpenCatalogStore -fuzztime=30s ./internal/catalog/

# Collect statistics for a demo index if needed, then serve it.
serve:
	@test -f catalog.json || $(GO) run ./cmd/epfis gen -out catalog.json -n 100000 -i 1000 -k 0.2
	$(GO) run ./cmd/epfis-serve -addr :8080 -catalog catalog.json
