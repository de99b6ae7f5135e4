package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"epfis/internal/core"
	"epfis/internal/datagen"
	"epfis/internal/experiment"
	"epfis/internal/gwl"
	"epfis/internal/lrusim"
	"epfis/internal/stats"
)

// Dataset scales. The paper's synthetic tables (N = 1M) and GWL tables are
// divided by these so a set-up finishes in about a second on two cores; the
// shape-preserving scaling keeps N/T, N/I and the clustering regime.
const (
	syntheticScale = 10 // N = 100k, I = 1000, T = 2500
	gwlScale       = 4
	tinyScale      = 200 // smoke tests: N = 5k
)

// paperIndex is one index of the paper's evaluation: a synthetic θ×K grid
// point or a GWL column reconstruction, with its generated data.
type paperIndex struct {
	meta  core.Meta
	ds    *datagen.Dataset
	trace lrusim.Trace
	opts  core.Options // StepFactor keeps the paper's grid density at scale
	fit   *fitted      // set, and the data dropped, when fitted at generation
}

// fitted is one catalog entry the benchmark fitted itself, with the
// compiled estimator it checks served answers against.
type fitted struct {
	st *stats.IndexStats
	ce *core.CompiledEstimator
}

// servingFits generates the serving workloads' indexes and fits each as
// soon as it is generated, keeping only the catalog entry, as a statistics
// collector would.
func servingFits(seed int64, synRounds, gwlRounds int, tiny bool) ([]*fitted, error) {
	sScale, gScale := syntheticScale, gwlScale
	if tiny {
		sScale, gScale = tinyScale, tinyScale
	}
	idx, err := paperIndexes(seed, synRounds, gwlRounds, sScale, gScale, true)
	if err != nil {
		return nil, err
	}
	out := make([]*fitted, len(idx))
	for i, p := range idx {
		out[i] = p.fit
	}
	return out, nil
}

// paperIndexes generates the synthetic grid repeated over synRounds seeds
// plus the GWL reconstructions over gwlRounds seeds, with the paper's sizes
// divided by sScale and gScale. Names carry the round so every index is
// distinct. With fitNow, each index is fitted on its worker and its data
// dropped.
func paperIndexes(seed int64, synRounds, gwlRounds, sScale, gScale int, fitNow bool) ([]*paperIndex, error) {
	type job struct {
		syn   *experiment.SyntheticSpec
		gwl   *gwl.ColumnSpec
		round int
	}
	var jobs []job
	for r := 0; r < synRounds; r++ {
		for i := range experiment.SyntheticFigures {
			jobs = append(jobs, job{syn: &experiment.SyntheticFigures[i], round: r})
		}
	}
	for r := 0; r < gwlRounds; r++ {
		for i := range gwl.Columns {
			jobs = append(jobs, job{gwl: &gwl.Columns[i], round: r})
		}
	}
	gen := func(j job, s int64) (*paperIndex, error) {
		if j.syn != nil {
			cfg := datagen.Config{
				Name:   fmt.Sprintf("syn_t%.2f_k%.2f", j.syn.Theta, j.syn.K),
				Column: fmt.Sprintf("r%d", j.round),
				N:      int64(experiment.PaperSyntheticN / sScale),
				I:      int64(experiment.PaperSyntheticI / sScale),
				R:      experiment.PaperSyntheticR,
				Theta:  j.syn.Theta, K: j.syn.K, Seed: s,
			}
			ds, err := datagen.GenerateDataset(cfg)
			if err != nil {
				return nil, err
			}
			return &paperIndex{
				meta:  core.Meta{Table: cfg.Name, Column: cfg.Column, T: ds.T, N: cfg.N, I: cfg.I},
				ds:    ds,
				trace: ds.Trace(),
				opts:  core.Options{StepFactor: 1 / math.Sqrt(float64(sScale))},
			}, nil
		}
		rec, err := gwl.Reconstruct(*j.gwl, gwl.Options{Seed: s, Scale: gScale})
		if err != nil {
			return nil, err
		}
		return &paperIndex{
			meta: core.Meta{Table: "gwl_" + j.gwl.Table.Name, Column: fmt.Sprintf("%s_r%d", j.gwl.Column, j.round),
				T: rec.T, N: rec.N, I: rec.I},
			ds:    rec.Dataset,
			trace: rec.Dataset.Trace(),
			opts:  core.Options{StepFactor: 1 / math.Sqrt(float64(gScale))},
		}, nil
	}
	out := make([]*paperIndex, len(jobs))
	err := parallel(len(jobs), func(i int) error {
		j := jobs[i]
		p, err := gen(j, seed*1000+int64(j.round)*101+int64(i))
		if err != nil {
			return err
		}
		out[i] = p
		if fitNow {
			p.fit, err = fitOne(p.trace, p.meta, p.opts)
			p.ds, p.trace = nil, nil
		}
		return err
	})
	return out, err
}

func fitOne(trace lrusim.Trace, meta core.Meta, opts core.Options) (*fitted, error) {
	st, err := core.LRUFit(trace, meta, opts)
	if err != nil {
		return nil, fmt.Errorf("fit %s.%s: %w", meta.Table, meta.Column, err)
	}
	ce, err := core.Compile(st, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("compile %s.%s: %w", meta.Table, meta.Column, err)
	}
	return &fitted{st: st, ce: ce}, nil
}

// parallel runs fn(0..n-1) on GOMAXPROCS workers and returns the
// lowest-index error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int, n) // sized to the job count: filled once, never blocks
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameFit reports whether two entries carry identical statistics. The
// collection timestamp and the carried-over key histogram are not part of
// the fit.
func sameFit(a, b *stats.IndexStats) bool {
	if a.Table != b.Table || a.Column != b.Column || a.T != b.T || a.N != b.N || a.I != b.I ||
		a.BMin != b.BMin || a.BMax != b.BMax || a.FMin != b.FMin ||
		math.Float64bits(a.C) != math.Float64bits(b.C) || a.GridPoints != b.GridPoints ||
		len(a.Curve.Knots) != len(b.Curve.Knots) {
		return false
	}
	for i, k := range a.Curve.Knots {
		o := b.Curve.Knots[i]
		if math.Float64bits(k.X) != math.Float64bits(o.X) || math.Float64bits(k.Y) != math.Float64bits(o.Y) {
			return false
		}
	}
	return true
}
