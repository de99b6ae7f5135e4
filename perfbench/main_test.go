package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

// declared is the part of BENCHMARK.json the tests hold the benchmark to.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, workload string, trace bool, wrap func(http.Handler) http.Handler) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(&options{
		workload: workload, seed: defaultSeed, seconds: 1, trace: trace, tiny: true,
		wrapHandler: wrap, out: &out, workDir: t.TempDir() + "/work",
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestSmokeEveryMetricPrinted runs every declared workload at tiny volume,
// untraced and traced, and checks that each declared metric is in the
// result line with its declared unit and in the report with its unit.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			res, report := tinyRun(t, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct,
					res.Attempted, res.Failed, report)
			}
			specs := d.EndToEnd
			if trace {
				specs = d.PerLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, s.Name, m, s.Unit)
				}
				line := regexp.MustCompile(`(?m)^# ` + regexp.QuoteMeta(s.Name) + ` +\S+ ` + regexp.QuoteMeta(s.Unit) + `$`)
				if !line.MatchString(report) {
					t.Errorf("%s trace=%v: report lacks %s with unit %s", w.Name, trace, s.Name, s.Unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, s.Name)
				}
			}
		}
	}
}

// TestPerturbedFetchesFailsRun changes one digit of one served "fetches"
// value and requires the run to report itself incorrect.
func TestPerturbedFetchesFailsRun(t *testing.T) {
	var done atomic.Bool
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/estimate" || done.Load() {
				h.ServeHTTP(w, r)
				return
			}
			h.ServeHTTP(&perturbWriter{ResponseWriter: w, done: &done}, r)
		})
	}
	res, report := tinyRun(t, "serve-mix", false, wrap)
	if !done.Load() {
		t.Fatal("no estimate response was perturbed")
	}
	if res.Correct {
		t.Fatalf("run with a perturbed fetches value reported correct\n%s", report)
	}
	if !strings.Contains(report, "mismatch:") {
		t.Errorf("report names no mismatch\n%s", report)
	}
}

// perturbWriter rewrites the first digit after "fetches": in place, so the
// body length is unchanged.
type perturbWriter struct {
	http.ResponseWriter
	done *atomic.Bool
}

func (p *perturbWriter) Write(b []byte) (int, error) {
	if i := bytes.Index(b, fetchesKey); i >= 0 && !p.done.Load() {
		c := append([]byte(nil), b...)
		j := i + len(fetchesKey)
		if c[j] == '9' {
			c[j] = '1'
		} else {
			c[j]++
		}
		p.done.Store(true)
		return p.ResponseWriter.Write(c)
	}
	return p.ResponseWriter.Write(b)
}
