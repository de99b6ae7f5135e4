package main

// offline-fit: the paper's own computation, through the library with no
// server. Statistics collection runs core.LRUFit on every synthetic-grid and
// GWL index; the evaluation draws the paper's 200-scan small/large mix per
// index, measures each scan's true fetches with workload.Measure, and
// estimates them with Est-IO at every point of the paper's buffer sweep.

import (
	"math"
	"time"

	"epfis/internal/core"
	"epfis/internal/curvefit"
	"epfis/internal/lrusim"
	"epfis/internal/workload"
)

const (
	offlineScans     = 200
	offlineSmallProb = 0.5
	offlineCycle     = 1500 * time.Millisecond // fit passes plus one evaluation pass
	fitShare         = 0.4                     // share of a cycle spent on fit passes
	ingestBatchRefs  = 4096
)

// evalIndex is one index with its drawn scans and buffer sweep.
type evalIndex struct {
	*paperIndex
	scans []workload.Scan
	sweep []int
}

type offlineSys struct {
	idx  []*evalIndex
	refs int64 // index entries in one fit pass
}

func setupOfflineFit(opts *options) (*offlineSys, error) {
	synRounds, gwlRounds := 1, 1
	if opts.tiny {
		gwlRounds = 0
	}
	idx, err := paperIndexes(opts.seed, synRounds, gwlRounds, offlineSynScale(opts), offlineGWLScale(opts), false)
	if err != nil {
		return nil, err
	}
	sys := &offlineSys{}
	for i, p := range idx {
		gen, err := workload.NewGenerator(p.ds, opts.seed*7919+int64(i))
		if err != nil {
			return nil, err
		}
		scale := offlineSynScale(opts)
		if p.meta.Table[:4] == "gwl_" {
			scale = offlineGWLScale(opts)
		}
		floor := int64(300 / scale)
		if floor < 1 {
			floor = 1
		}
		ei := &evalIndex{paperIndex: p, scans: gen.Mix(offlineScans, offlineSmallProb), sweep: workload.BufferSweep(p.meta.T, floor)}
		sys.idx = append(sys.idx, ei)
		sys.refs += p.meta.N
	}
	return sys, nil
}

// Offline-fit runs the evaluation, whose cost grows with scans × N, on
// smaller tables than the serving workloads fit.
func offlineSynScale(opts *options) int {
	if opts.tiny {
		return tinyScale
	}
	return 40 // N = 25k, T = 625
}

func offlineGWLScale(opts *options) int {
	if opts.tiny {
		return tinyScale
	}
	return 16
}

// fitPass runs LRU-Fit on every index; it returns the pass's fits and the
// per-index wall times.
func (sys *offlineSys) fitPass(rec *recorder) ([]*fitted, []int64, time.Duration, error) {
	fits := make([]*fitted, len(sys.idx))
	times := make([]int64, len(sys.idx))
	start := time.Now()
	for i, p := range sys.idx {
		var sp span
		if rec != nil {
			sp = span{name: "lrufit", id: randUint64(), start: rec.now()}
		}
		t0 := time.Now()
		st, err := core.LRUFit(p.trace, p.meta, p.opts)
		times[i] = int64(time.Since(t0))
		if rec != nil {
			rec.finish(sp)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		fits[i] = &fitted{st: st}
	}
	return fits, times, time.Since(start), nil
}

// evalPass measures and estimates every index's scans across its sweep. It
// returns per-index wall time per scan, the pass's aggregate error (mean
// over indexes and sweep points of the paper's relative error) and the
// references the measurement simulated.
func (sys *offlineSys) evalPass(fits []*fitted, rec *recorder) (perScan []float64, errPct float64, measureNs, measuredRefs int64, elapsed time.Duration, err error) {
	start := time.Now()
	var errSum float64
	var points int
	for i, p := range sys.idx {
		t0 := time.Now()
		var sp span
		if rec != nil {
			sp = span{name: "workload.measure", id: randUint64(), start: rec.now()}
		}
		measured := workload.Measure(p.ds, p.scans)
		measureNs += int64(time.Since(t0))
		if rec != nil {
			rec.finish(sp)
		}
		for _, s := range p.scans {
			measuredRefs += int64(s.Records())
		}
		for _, b := range p.sweep {
			var m workload.ErrorMetric
			for _, ms := range measured {
				est, e := core.EstIO(fits[i].st, core.Input{B: int64(b), Sigma: ms.Scan.Sigma, S: 1}, core.Options{})
				if e != nil {
					return nil, 0, 0, 0, 0, e
				}
				m.Add(est.F, float64(ms.Curve.Fetches(b)))
			}
			pct, e := m.Percent()
			if e != nil {
				return nil, 0, 0, 0, 0, e
			}
			errSum += pct
			points++
		}
		perScan = append(perScan, float64(time.Since(t0).Microseconds())/float64(len(p.scans)))
	}
	return perScan, errSum / float64(max(points, 1)), measureNs, measuredRefs, time.Since(start), nil
}

// offlineStats is one measured phase.
type offlineStats struct {
	fitRates, evalRates []float64 // per pass
	fitP50, scanP50     []float64 // per pass: median per-index fit and per-scan evaluation time, µs
	fitNs, fitRefs      int64
	measureNs, measRefs int64
	errPct              float64
	passes              int
}

// measure runs cycles of fit passes (fitShare of a cycle) followed by one
// evaluation pass until d has passed, at least one cycle, checking every
// pass against the first. Interleaving spreads both kinds of pass over the
// whole phase, so host drift during a run weighs on both alike.
func (sys *offlineSys) measure(d time.Duration, rep *report, rec *recorder, ref *[]*fitted, refErr *float64) (*offlineStats, error) {
	st := &offlineStats{}
	fitClass, evalClass := rep.class("fit"), rep.class("evaluate")
	scans := 0
	for _, p := range sys.idx {
		scans += len(p.scans)
	}
	end := time.Now().Add(d)
	for cycle := true; cycle || time.Now().Before(end); cycle = false {
		var fits []*fitted
		fitEnd := time.Now().Add(time.Duration(float64(offlineCycle) * fitShare))
		for first := true; first || time.Now().Before(fitEnd); first = false {
			f, times, el, err := sys.fitPass(rec)
			if err != nil {
				return nil, err
			}
			if *ref == nil {
				*ref = f
			}
			us := make([]float64, len(f))
			for i := range f {
				us[i] = float64(times[i]) / 1e3
				if sameFit(f[i].st, (*ref)[i].st) {
					fitClass.ok()
				} else {
					fitClass.fail()
					rep.mismatch("LRU-Fit of %s is not deterministic", f[i].st.Key())
				}
				st.fitNs += times[i]
			}
			st.fitP50 = append(st.fitP50, median(us))
			st.fitRefs += sys.refs
			st.fitRates = append(st.fitRates, float64(sys.refs)/el.Seconds())
			fits = f
		}
		perScan, errPct, mNs, mRefs, el, err := sys.evalPass(fits, rec)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(*refErr) {
			*refErr = errPct
		}
		ok := math.Float64bits(errPct) == math.Float64bits(*refErr)
		if !ok {
			rep.mismatch("aggregate error changed between passes: %v vs %v", errPct, *refErr)
		}
		for range sys.idx {
			if ok {
				evalClass.ok()
			} else {
				evalClass.fail()
			}
		}
		st.evalRates = append(st.evalRates, float64(scans)/el.Seconds())
		st.scanP50 = append(st.scanP50, median(perScan))
		st.measureNs += mNs
		st.measRefs += mRefs
		st.errPct = errPct
		st.passes++
	}
	return st, nil
}

// check runs the offline correctness checks once per run: LRU-Fit equals
// LRU-Fit-from-curve over an Accum fed in ingest-sized batches, and the
// compiled estimator equals Est-IO at every sweep point of every scan.
func (sys *offlineSys) check(fits []*fitted, rep *report) {
	for i, p := range sys.idx {
		a := lrusim.NewAccum()
		for lo := 0; lo < len(p.trace); lo += ingestBatchRefs {
			a.Feed(p.trace[lo:min(lo+ingestBatchRefs, len(p.trace))])
		}
		fromCurve, err := core.LRUFitFromCurve(a.Curve(), p.meta, p.opts)
		if err != nil || !sameFit(fromCurve, fits[i].st) {
			rep.mismatch("LRUFitFromCurve over a batch-fed Accum differs from LRUFit for %s (err %v)", p.meta.Table, err)
		}
		ce, err := core.Compile(fits[i].st, core.Options{})
		if err != nil {
			rep.mismatch("compile %s: %v", fits[i].st.Key(), err)
			continue
		}
		for _, b := range p.sweep {
			for _, s := range p.scans {
				want, err1 := core.EstIO(fits[i].st, core.Input{B: int64(b), Sigma: s.Sigma, S: 1}, core.Options{})
				got, err2 := ce.EstimateFetches(int64(b), s.Sigma, 1)
				if err1 != nil || err2 != nil || math.Float64bits(got) != math.Float64bits(want.F) {
					rep.mismatch("compiled estimator differs from EstIO for %s at B=%d sigma=%g", fits[i].st.Key(), b, s.Sigma)
				}
			}
		}
	}
}

func runOfflineFit(opts *options, rep *report) error {
	sys, err := timeSetups(rep, func() (*offlineSys, error) { return setupOfflineFit(opts) }, func(*offlineSys) {})
	if err != nil {
		return err
	}
	var ref []*fitted
	refErr := math.NaN()
	rss := startRSS()
	p0 := sampleProc()
	st, err := sys.measure(opts.untracedDur(), rep, nil, &ref, &refErr)
	if err != nil {
		return err
	}
	p1 := sampleProc()
	rep.metric("peak_rss_mb", rss.stopMB(), "MB")
	sys.check(ref, rep)
	fitRate := median(st.fitRates)
	rep.metric("primary_per_s", fitRate, "1/s")
	rep.metric("primary_p50_us", median(st.fitP50), "us")
	rep.metric("secondary_per_s", median(st.evalRates), "1/s")
	rep.metric("secondary_p50_us", median(st.scanP50), "us")
	rep.named("fit_refs_per_s", fitRate, "refs/s")
	rep.named("evaluate_scans_per_s", median(st.evalRates), "scans/s")
	rep.named("fit_passes", float64(len(st.fitRates)), "count")
	rep.named("evaluate_passes", float64(st.passes), "count")
	rep.named("indexes", float64(len(sys.idx)), "count")
	rep.named("agg_error_pct", st.errPct, "%")
	if !opts.trace {
		return nil
	}
	rep.recordProc(p0, p1, int64((len(st.fitRates)+st.passes)*len(sys.idx)))
	rep.metric("workload.agg_error_pct", st.errPct, "%")

	rec := newRecorder()
	rec.on.Store(true)
	tst, err := sys.measure(opts.tracedDur(), rep, rec, &ref, &refErr)
	if err != nil {
		return err
	}
	tracedRate := median(tst.fitRates)
	rep.metric("trace.overhead_pct", 100*(fitRate-tracedRate)/fitRate, "%")
	rep.metric("core.lrufit_ms_per_mref", float64(tst.fitNs)/1e6/(float64(tst.fitRefs)/1e6), "ms")
	rep.metric("lrusim.measure_ns_per_ref", float64(tst.measureNs)/float64(tst.measRefs), "ns")

	// Replayed layers: the Mattson pass alone, and the curve fit alone on
	// the points LRU-Fit samples.
	var analyzeNs, refs int64
	var fitUs []float64
	for i, p := range sys.idx {
		var curve *lrusim.FetchCurve
		analyzeNs += rec.timed("replay.lrusim.analyze", func() { curve = lrusim.Analyze(p.trace) })
		refs += int64(len(p.trace))
		bmin, bmax := core.ModelingRange(p.meta.T, p.opts)
		grid := core.ModelingGridStep(bmin, bmax, p.opts.Spacing, p.opts.StepFactor)
		samples := lrusim.SampleCurve(curve, grid)
		if len(samples) < 2 {
			continue
		}
		pts := make([]curvefit.Point, len(samples))
		for j, s := range samples {
			pts[j] = curvefit.Point{X: float64(s.B), Y: float64(s.F)}
		}
		var pl curvefit.PolyLine
		var ferr error
		ns := rec.timed("replay.curvefit.fit", func() { pl, ferr = curvefit.FitOptimal(pts, core.DefaultSegments) })
		fitUs = append(fitUs, float64(ns)/1e3)
		if ferr != nil || len(pl.Knots) != len(ref[i].st.Curve.Knots) {
			rep.mismatch("replayed curve fit differs for %s", ref[i].st.Key())
			continue
		}
		for j, k := range pl.Knots {
			if k != ref[i].st.Curve.Knots[j] {
				rep.mismatch("replayed curve fit differs for %s at knot %d", ref[i].st.Key(), j)
				break
			}
		}
	}
	rep.metric("lrusim.analyze_ns_per_ref", float64(analyzeNs)/float64(refs), "ns")
	rep.metric("curvefit.fit_us", median(fitUs), "us")
	return finishTrace(opts, rep, rec, indexSpans(rec.spans()))
}
