package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles(1..4) = %g %g %g, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles(7) = %g %g %g", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricSpec{Name: "primary_per_s", Better: "higher", Bound: 0.25}
	lower := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	base := []float64{100, 102, 98, 101}
	cases := []struct {
		name string
		m    metricSpec
		base []float64
		head []float64
		want string
		wins int
	}{
		{"clear gain", higher, base, []float64{150, 149, 151, 148}, "better", 4},
		{"gain on a lower-is-better metric", lower, base, []float64{50, 51, 49, 52}, "better", 4},
		{"one lost pair in four is not nine in ten", higher, base, []float64{150, 149, 97, 148}, "ok", 3},
		{"within the bound", higher, base, []float64{95, 97, 99, 96}, "ok", 1},
		{"past the bound", higher, base, []float64{70, 72, 69, 71}, "worse", 0},
		{"past the bound, lower is better", lower, base, []float64{130, 131, 129, 132}, "worse", 0},
		{"base spread wider than the bound", higher, []float64{60, 140, 70, 130}, []float64{60, 140, 70, 130}, "unresolved", 0},
		{"a clear gain resolves a wide base", higher, []float64{60, 140, 70, 130}, []float64{300, 310, 305, 299}, "better", 4},
	}
	for _, c := range cases {
		got, wins, _ := verdict(c.m, c.base, c.head)
		if got != c.want || wins != c.wins {
			t.Errorf("%s: verdict %s with %d wins, want %s with %d", c.name, got, wins, c.want, c.wins)
		}
	}
}

func TestLastResult(t *testing.T) {
	out := "# primary_per_s 1 1/s\n# correct=true\n" +
		`{"correct":true,"attempted":10,"failed":1,"metrics":{"primary_per_s":{"value":2.5,"unit":"1/s"}}}` + "\n\n"
	res, err := lastResult([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10 || res.Failed != 1 || res.Metrics["primary_per_s"].Value != 2.5 {
		t.Errorf("parsed %+v", res)
	}
	if _, err := lastResult([]byte("# no result line\n")); err == nil || !strings.Contains(err.Error(), "last output line") {
		t.Errorf("missing result line: err = %v", err)
	}
}

func TestSpecPerLayer(t *testing.T) {
	raw := `{"command":["bash","run.sh"],"run_seconds":20,
		"end_to_end":[{"name":"primary_per_s","unit":"1/s","better":"higher","bound":0.25}],
		"per_layer":[{"name":"lrusim.measure_ns_per_ref","unit":"ns","better":"lower"}]}`
	var sp spec
	if err := json.Unmarshal([]byte(raw), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.PerLayer) != 1 || sp.PerLayer[0] != (metricSpec{Name: "lrusim.measure_ns_per_ref", Unit: "ns", Better: "lower"}) {
		t.Errorf("per_layer parsed as %+v", sp.PerLayer)
	}
	if traceArg(true) != "1" || traceArg(false) != "0" {
		t.Errorf("traceArg = %q, %q", traceArg(true), traceArg(false))
	}
}

func TestReportLayers(t *testing.T) {
	// A traced run's last line carries the per-layer set; the table gives
	// each metric's medians and change, no verdict, and drops the metrics
	// both sides read as 0.
	parse := func(measure, feed float64) result {
		line := fmt.Sprintf(`{"correct":true,"attempted":4,"failed":0,"metrics":{`+
			`"lrusim.measure_ns_per_ref":{"value":%g,"unit":"ns"},`+
			`"lrusim.feed_ns_per_ref":{"value":%g,"unit":"ns"},`+
			`"catalog.fsyncs":{"value":0,"unit":"count"}}}`, measure, feed)
		res, err := lastResult([]byte("# lrusim.measure_ns_per_ref\n" + line + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := []result{parse(20, 0), parse(22, 0), parse(21, 0)}
	head := []result{parse(10, 0), parse(11, 0), parse(9, 3)}
	metrics := []metricSpec{
		{Name: "lrusim.measure_ns_per_ref", Unit: "ns", Better: "lower"},
		{Name: "lrusim.feed_ns_per_ref", Unit: "ns", Better: "lower"},
		{Name: "catalog.fsyncs", Unit: "count", Better: "lower"},
	}
	var out strings.Builder
	reportLayers(&out, metrics, base, head)
	got := out.String()
	for _, want := range []string{"correct 3/3 runs", "lrusim.measure_ns_per_ref (ns)", "21", "10", "-52.4%"} {
		if !strings.Contains(got, want) {
			t.Errorf("per-layer table lacks %q:\n%s", want, got)
		}
	}
	// feed's base median is 0 and its head median 0 too (two of three runs).
	for _, absent := range []string{"catalog.fsyncs", "lrusim.feed_ns_per_ref", "better", "worse", "ok"} {
		if strings.Contains(got, absent) {
			t.Errorf("per-layer table has %q:\n%s", absent, got)
		}
	}
}
