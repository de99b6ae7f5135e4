package main

import (
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
