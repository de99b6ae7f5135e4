// Command perfbench is the EPFIS end-to-end benchmark. It runs one named
// workload against the real program — the estimation service on loopback
// sockets, a three-node WAL-backed cluster, or the offline LRU-Fit and
// evaluation library path — checks every answer, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured with no
// instrumentation of any kind installed. With --trace 1 the run is split:
// the first half runs untraced, the second half records spans around the
// program's public seams (handler, transport, filesystem) and replays each
// layer's calls, and the object carries the per-layer metrics plus the
// tracing overhead between the two halves. README.md gives the rationale,
// the metric definitions, and the layer-to-end-to-end prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Default and held-out seeds: tune on the default, re-check every claim on
// the held-out one.
const (
	defaultSeed  = 1
	heldOutSeed  = 7
	tracedShare  = 0.5 // share of --seconds the traced run spends traced
	setupRepeats = 3   // set-ups per run; setup_s is their median
)

// options configures one run. tiny and wrapHandler exist for the
// benchmark's own tests: tiny shrinks every input to smoke-test size, and
// wrapHandler interposes on each node's HTTP handler.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	tiny        bool
	wrapHandler func(http.Handler) http.Handler
	out         io.Writer // human-readable report
	workDir     string    // scratch space for WAL stores and span dumps
}

// untracedDur is the measured time with no tracing installed: all of
// --seconds, or the first half of a traced run.
func (o *options) untracedDur() time.Duration {
	if o.trace {
		return time.Duration(o.seconds * (1 - tracedShare) * float64(time.Second))
	}
	return time.Duration(o.seconds * float64(time.Second))
}

// tracedDur is the traced half of a traced run.
func (o *options) tracedDur() time.Duration {
	return time.Duration(o.seconds * tracedShare * float64(time.Second))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type workloadFunc func(*options, *report) error

var workloads = map[string]workloadFunc{
	"serve-mix":      runServeMix,
	"cluster-ingest": runClusterIngest,
	"offline-fit":    runOfflineFit,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "serve-mix", "workload: serve-mix, cluster-ingest or offline-fit")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	secs := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opts := &options{
		workload: *wl, seed: *seed, seconds: *secs, trace: *trace == 1,
		out: os.Stdout, workDir: filepath.Join(wd, ".bench_build", "work"),
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result. A correctness
// mismatch yields Correct = false (and a non-zero exit from main); an error
// means the run could not be carried out at all.
func run(opts *options) (*result, error) {
	fn, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport(opts)
	rep.printHost()
	start := time.Now()
	if err := fn(opts, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	res := rep.result()
	rep.printSummary(res, time.Since(start))
	return res, nil
}

// metricSpec declares one metric the benchmark prints. The end-to-end set
// is printed by every untraced run and the per-layer set by every traced
// run, each under the same names on every workload: a per-layer value is 0
// on a workload whose layer does no work.
type metricSpec struct {
	name, unit string
}

// endToEndSpecs are the gated end-to-end metrics. The workloads share the
// names; README.md maps each to the workload-specific quantity it carries.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"primary_per_s", "1/s"},
	{"primary_p50_us", "us"},
	{"secondary_per_s", "1/s"},
	{"secondary_p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

// hopKinds are the inter-node hop classes the cluster transport wrapper
// tells apart.
var hopKinds = []string{"proxy", "replicate", "ingest_forward", "gossip", "digest", "entry", "snapshot"}

// perLayerSpecs are the traced run's metrics, grouped by module.
var perLayerSpecs = func() []metricSpec {
	s := []metricSpec{
		{"transport.estimate_us", "us"},
		{"transport.conns_dialed", "count"},
		{"service.handler_estimate_us", "us"},
		{"service.handler_batch_us", "us"},
		{"service.handler_ingest_us", "us"},
		{"service.handler_put_us", "us"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.cache_evictions", "count"},
		{"service.admission_sheds", "count"},
		{"service.ingest_queue_depth_p99", "batches"},
		{"service.ingest_shed_ratio", "ratio"},
		{"service.response_bytes_per_plan", "B"},
		{"core.estimate_ns", "ns"},
		{"core.refit_ms", "ms"},
		{"core.lrufit_ms_per_mref", "ms"},
		{"lrusim.feed_ns_per_ref", "ns"},
		{"lrusim.analyze_ns_per_ref", "ns"},
		{"lrusim.measure_ns_per_ref", "ns"},
		{"curvefit.fit_us", "us"},
		{"catalog.wal_writes", "count"},
		{"catalog.wal_bytes_per_ref", "B"},
		{"catalog.fsyncs", "count"},
		{"catalog.fsync_us_p50", "us"},
		{"catalog.fsync_us_p99", "us"},
		{"catalog.commits_per_fsync", "ratio"},
		{"catalog.checkpoints", "count"},
		{"catalog.checkpoint_ms", "ms"},
		{"catalog.snapshot_ns", "ns"},
	}
	for _, k := range hopKinds {
		s = append(s,
			metricSpec{"cluster.hops." + k, "count"},
			metricSpec{"cluster.hop_us." + k, "us"},
			metricSpec{"cluster.hop_bytes." + k, "B"})
	}
	s = append(s,
		metricSpec{"cluster.proxied_ratio", "ratio"},
		metricSpec{"cluster.fastacks", "count"},
		metricSpec{"cluster.replication_failures", "count"},
		metricSpec{"cluster.handoff_queued", "count"},
		metricSpec{"cluster.antientropy_bytes", "B"},
		metricSpec{"workload.agg_error_pct", "%"},
		metricSpec{"process.cpu_util", "ratio"},
		metricSpec{"process.allocs_per_op", "allocs"},
		metricSpec{"process.gc_pause_ms", "ms"},
		metricSpec{"process.gc_cycles", "count"},
		metricSpec{"e2e.estimate_p99_us", "us"},
		metricSpec{"e2e.batch_p99_us", "us"},
		metricSpec{"e2e.put_p50_ms", "ms"},
		metricSpec{"e2e.ingest_ack_p99_ms", "ms"},
		metricSpec{"trace.overhead_pct", "%"},
		metricSpec{"trace.spans", "count"},
	)
	return s
}()

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
