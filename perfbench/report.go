package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/service"
)

// opClass counts one request class honestly: every attempt, and every
// failure — refusals (429), server errors, timeouts, transport errors and
// wrong answers alike.
type opClass struct {
	name                         string
	attempted, succeeded, failed atomic.Int64
}

// ok and fail record one attempt's outcome.
func (c *opClass) ok()   { c.attempted.Add(1); c.succeeded.Add(1) }
func (c *opClass) fail() { c.attempted.Add(1); c.failed.Add(1) }

// report collects one run's metrics, request classes and correctness
// mismatches, and prints the human-readable summary.
type report struct {
	opts    *options
	mu      sync.Mutex
	vals    map[string]metric // declared metrics
	info    map[string]metric // workload-named figures printed for humans
	classes []*opClass
	wrong   atomic.Int64
	notes   []string // first mismatches, for the summary
}

func newReport(opts *options) *report {
	return &report{opts: opts, vals: map[string]metric{}, info: map[string]metric{}}
}

// class returns the named request class, creating it on first use.
func (r *report) class(name string) *opClass {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.classes {
		if c.name == name {
			return c
		}
	}
	c := &opClass{name: name}
	r.classes = append(r.classes, c)
	return c
}

// metric records a declared metric.
func (r *report) metric(name string, v float64, unit string) {
	r.mu.Lock()
	r.vals[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// named records a workload-specific figure under the name README.md uses
// for it (estimates_per_s, put_p50_ms, ...). These are printed, with their
// units, in the summary above the result line.
func (r *report) named(name string, v float64, unit string) {
	r.mu.Lock()
	r.info[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// mismatch records a wrong answer. Any mismatch fails the run.
func (r *report) mismatch(format string, args ...any) {
	r.wrong.Add(1)
	r.mu.Lock()
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// result assembles the result line: the end-to-end metrics for an untraced
// run, the per-layer metrics for a traced one.
func (r *report) result() *result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := &result{Correct: r.wrong.Load() == 0, Metrics: map[string]metric{}}
	for _, c := range r.classes {
		res.Attempted += c.attempted.Load()
		res.Failed += c.failed.Load()
	}
	specs := endToEndSpecs
	if r.opts.trace {
		specs = perLayerSpecs
	}
	for _, s := range specs {
		m, ok := r.vals[s.name]
		if !ok {
			m = metric{Unit: s.unit}
		}
		if m.Unit != s.unit {
			panic(fmt.Sprintf("metric %s recorded in %s, declared in %s", s.name, m.Unit, s.unit))
		}
		res.Metrics[s.name] = m
	}
	return res
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.opts.out, format, args...)
}

// printHost records what the numbers were measured on: cross-host
// comparisons are meaningless, so every run carries its fingerprint.
func (r *report) printHost() {
	r.printf("# perfbench workload=%s seed=%d (default %d, held-out %d) seconds=%g trace=%v\n",
		r.opts.workload, r.opts.seed, defaultSeed, heldOutSeed, r.opts.seconds, r.opts.trace)
	r.printf("# host cpu=%q num_cpu=%d gomaxprocs=%d go=%s kernel=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease())
	r.printf("# wal dir fs=%s group_commit=leader-batched checkpoint_every=%d; serving defaults: cache=%d entries, request_timeout=%s, max_inflight=%d, ingest_queue=%d, drift=%g\n",
		fsType(r.opts.workDir), catalog.DefaultCheckpointEvery, service.DefaultCacheEntries,
		service.DefaultRequestTimeout, service.DefaultMaxInflight, service.DefaultIngestQueue,
		service.DefaultDriftThreshold)
}

// printSummary prints the request classes, the workload-named figures and
// every recorded metric, each with its unit.
func (r *report) printSummary(res *result, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.printf("# %-16s %12s %12s %10s\n", "class", "attempted", "succeeded", "failed")
	for _, c := range r.classes {
		r.printf("# %-16s %12d %12d %10d\n", c.name, c.attempted.Load(), c.succeeded.Load(), c.failed.Load())
	}
	r.printf("# wrong answers: %d\n", r.wrong.Load())
	for _, n := range r.notes {
		r.printf("#   mismatch: %s\n", n)
	}
	for _, k := range sortedKeys(r.info) {
		m := r.info[k]
		r.printf("# %s %s %s\n", k, formatValue(m.Value), m.Unit)
	}
	all := map[string]metric{}
	for k, m := range r.vals {
		all[k] = m
	}
	for k, m := range res.Metrics {
		all[k] = m
	}
	for _, k := range sortedKeys(all) {
		m := all[k]
		r.printf("# %s %s %s\n", k, formatValue(m.Value), m.Unit)
	}
	r.printf("# correct=%v attempted=%d failed=%d wall=%s\n", res.Correct, res.Attempted, res.Failed,
		wall.Round(time.Millisecond))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(data))
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x6a656a63: "virtiofs",
		0x65735546: "fuse", 0x2fc12fc1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// rssSampler tracks the resident set size over a measured phase, so the
// figure is the serving footprint and not the set-up's transient garbage.
type rssSampler struct {
	stop, done chan struct{}
	peak       int64 // owned by the sampling goroutine until done
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: residentBytes()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = max(s.peak, residentBytes())
			}
		}
	}()
	return s
}

// stopMB ends sampling and returns the high-water mark in MB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return float64(max(s.peak, residentBytes())) / (1 << 20)
}

// residentBytes reads the process's resident set size.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSample brackets a measured phase with the Go runtime's and the
// kernel's process counters.
type procSample struct {
	wall           time.Time
	cpu            float64
	mallocs, numGC uint64
	pauseNs        uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{wall: time.Now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// recordProc reports the process layer over [a, b] with ops operations.
func (r *report) recordProc(a, b procSample, ops int64) {
	wall := b.wall.Sub(a.wall).Seconds()
	if wall > 0 {
		r.metric("process.cpu_util", (b.cpu-a.cpu)/wall, "ratio")
	}
	if ops > 0 {
		r.metric("process.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops), "allocs")
	}
	r.metric("process.gc_pause_ms", float64(b.pauseNs-a.pauseNs)/1e6, "ms")
	r.metric("process.gc_cycles", float64(b.numGC-a.numGC), "count")
}

// percentile returns the q-quantile (nearest rank) of xs, sorting it.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

// median returns the median of xs (mean of the middle pair for even
// lengths), sorting it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// timeSetups runs setup setupRepeats times, tearing down all but the last,
// and reports setup_s as the median. The workloads' inputs are a pure
// function of the seed, so every repetition builds the same system.
func timeSetups[T any](r *report, setup func() (T, error), teardown func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	r.metric("setup_s", median(times), "s")
	// Hand the set-ups' garbage back to the kernel, so the measured
	// phase's resident set starts from the live system.
	debug.FreeOSMemory()
	return last, nil
}
