// Command epfis-perfab runs a same-host A/B of the end-to-end benchmark
// declared in BENCHMARK.json, between a base revision and the working tree,
// from the repository root:
//
//	go run ./cmd/epfis-perfab -base <rev> [-pairs 4] [-workloads offline-fit,serve-mix] [-seed 1] [-trace]
//
// It extracts the base revision's committed files under .bench_build/ab-base
// and runs the benchmark command there and in the working tree alternately,
// base first on odd pairs and head first on even ones, each run untraced and
// as long as BENCHMARK.json's run_seconds. Each side builds its own binary
// under its own .bench_build. For every workload and end-to-end metric it
// prints the base and head medians, the change, the base's interquartile
// range as a share of its median, the pairs head won, and a verdict:
//
//	better      head won at least 9 pairs in 10 and the medians differ by
//	            more than the base's interquartile range
//	unresolved  otherwise, when the base's interquartile range exceeds the
//	            metric's bound
//	worse       otherwise, when head's median is worse by more than the bound
//	ok          within the bound
//
// With -trace, every pair also makes one traced run (--trace 1) per side,
// in the same order, and each workload's table is followed by the medians
// of the per-layer metrics BENCHMARK.json declares, with their change and
// no verdict: they explain an end-to-end change, they do not gate one.
// Metrics that read 0 on both sides, layers the workload does not use, are
// left out.
//
// The extracted tree is removed on exit. `make perfbench-ab BASE=<rev>
// [TRACE=1]` runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// spec is the part of BENCHMARK.json the A/B reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // largest tolerated worsening, as a share of the base median; end-to-end only
}

// result is the JSON object a benchmark run prints on its last line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

const baseDir = ".bench_build/ab-base"

func main() {
	base := flag.String("base", "", "base revision to compare the working tree against (required)")
	pairs := flag.Int("pairs", 4, "base/head run pairs per workload")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed passed to every run")
	trace := flag.Bool("trace", false, "also make a traced run per side in every pair and print per-layer medians")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: epfis-perfab -base <rev> [-pairs n] [-workloads a,b] [-seed n] [-trace]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *base, *pairs, *workloads, *seed, *trace)
	stop()
	if rmErr := os.RemoveAll(baseDir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "epfis-perfab:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, base string, pairs int, workloads string, seed int64, trace bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(sp.Command) == 0 {
		return errors.New("BENCHMARK.json: empty command")
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	if err := extract(base, baseDir); err != nil {
		return err
	}
	fmt.Printf("A/B: base %s (%s) vs head %s (working tree); seed %d, %d pairs, %gs runs\n",
		base, gitOut("rev-parse", "--short", base), gitOut("describe", "--always", "--dirty"), seed, pairs, sp.RunSeconds)
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	for _, w := range names {
		var plain, traced sides
		for p := 1; p <= pairs; p++ {
			order := []string{"base", "head"}
			if p%2 == 0 {
				order[0], order[1] = order[1], order[0]
			}
			for _, tr := range modes {
				for _, side := range order {
					dir, runs, label := ".", &plain, ""
					if side == "base" {
						dir = baseDir
					}
					if tr {
						runs, label = &traced, " (traced)"
					}
					fmt.Fprintf(os.Stderr, "%s pair %d/%d: %s%s\n", w, p, pairs, side, label)
					res, err := runOnce(ctx, dir, sp, w, seed, tr)
					if err != nil {
						return fmt.Errorf("%s %s%s run %d: %w", w, side, label, p, err)
					}
					runs.add(side, res)
				}
			}
		}
		report(os.Stdout, w, sp.EndToEnd, plain.base, plain.head)
		if trace {
			reportLayers(os.Stdout, sp.PerLayer, traced.base, traced.head)
		}
	}
	return nil
}

// sides holds one workload's results, one per pair on each side.
type sides struct{ base, head []result }

func (s *sides) add(side string, res result) {
	if side == "base" {
		s.base = append(s.base, res)
	} else {
		s.head = append(s.head, res)
	}
}

// extract writes rev's committed files into dir, replacing what was there.
func extract(rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tarball := filepath.Join(filepath.Dir(dir), "ab-base.tar")
	defer os.Remove(tarball)
	for _, args := range [][]string{
		{"git", "archive", "--format=tar", "-o", tarball, rev},
		{"tar", "-xf", tarball, "-C", dir},
	} {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("extract %s: %s: %w", rev, args[0], err)
		}
	}
	return nil
}

func gitOut(args ...string) string {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "?"
	}
	return strings.TrimSpace(string(out))
}

// runOnce runs the benchmark command once in dir, traced or not, and parses
// its last line.
func runOnce(ctx context.Context, dir string, sp spec, workload string, seed int64, traced bool) (result, error) {
	args := append(append([]string(nil), sp.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--trace", traceArg(traced))
	cmd := exec.CommandContext(ctx, sp.Command[0], args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	return lastResult(out.Bytes())
}

// traceArg is the benchmark's --trace value.
func traceArg(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

// lastResult parses the JSON object on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last output line: %w", err)
	}
	return res, nil
}

// report prints one workload's table.
func report(w io.Writer, workload string, metrics []metricSpec, base, head []result) {
	fmt.Fprintf(w, "\n%s: base %s, head %s\n", workload, outcome(base), outcome(head))
	fmt.Fprintf(w, "  %-18s %14s %14s %8s %9s %6s  %s\n", "metric", "base median", "head median", "change", "base IQR", "wins", "verdict")
	for _, m := range metrics {
		b, okB := values(base, m.Name)
		h, okH := values(head, m.Name)
		if !okB || !okH {
			continue
		}
		_, bm, _ := quartiles(b)
		_, hm, _ := quartiles(h)
		v, wins, iqr := verdict(m, b, h)
		fmt.Fprintf(w, "  %-18s %14.6g %14.6g %+7.1f%% %8.1f%% %3d/%-2d  %s\n",
			m.Name+" ("+m.Unit+")", bm, hm, 100*(hm-bm)/bm, 100*iqr/bm, wins, len(b), v)
	}
}

// reportLayers prints the traced runs' per-layer medians under a workload's
// table, without a verdict, leaving out metrics both sides read as 0.
func reportLayers(w io.Writer, metrics []metricSpec, base, head []result) {
	fmt.Fprintf(w, "  per layer (traced: base %s, head %s)\n", outcome(base), outcome(head))
	fmt.Fprintf(w, "  %-36s %14s %14s %8s\n", "metric", "base median", "head median", "change")
	for _, m := range metrics {
		b, okB := values(base, m.Name)
		h, okH := values(head, m.Name)
		if !okB || !okH {
			continue
		}
		_, bm, _ := quartiles(b)
		_, hm, _ := quartiles(h)
		if bm == 0 && hm == 0 {
			continue
		}
		change := "n/a"
		if bm != 0 {
			change = fmt.Sprintf("%+7.1f%%", 100*(hm-bm)/bm)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %14.6g %8s\n", m.Name+" ("+m.Unit+")", bm, hm, change)
	}
}

// outcome summarizes a side's correctness and failed share.
func outcome(runs []result) string {
	correct := 0
	var attempted, failed int64
	for _, r := range runs {
		if r.Correct {
			correct++
		}
		attempted += r.Attempted
		failed += r.Failed
	}
	return fmt.Sprintf("correct %d/%d runs, failed %d of %d ops", correct, len(runs), failed, attempted)
}

// values collects one metric across runs; false when any run lacks it.
func values(runs []result, name string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out[i] = m.Value
	}
	return out, true
}

// verdict judges head against base on one metric; base[i] and head[i] are
// pair i. It also returns the pairs head won and the base's interquartile
// range.
func verdict(m metricSpec, base, head []float64) (v string, wins int, iqr float64) {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range base {
		if sign*(head[i]-base[i]) > 0 {
			wins++
		}
	}
	q1, bm, q3 := quartiles(base)
	_, hm, _ := quartiles(head)
	gain := sign * (hm - bm)
	iqr = q3 - q1
	switch {
	case 10*wins >= 9*len(base) && gain > iqr:
		return "better", wins, iqr
	case iqr > m.Bound*math.Abs(bm):
		return "unresolved", wins, iqr
	case -gain > m.Bound*math.Abs(bm):
		return "worse", wins, iqr
	}
	return "ok", wins, iqr
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolating linearly between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
