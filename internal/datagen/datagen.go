// Package datagen generates the paper's synthetic datasets (§5.2): tables
// with a controlled degree of clustering between index order and physical
// record placement.
//
// The generator follows the paper's modified Wolf et al. (1990) scheme:
//
//   - N records take I distinct values; duplicates per value follow Knuth's
//     generalized Zipf distribution with parameter θ (θ = 0 uniform,
//     θ = 0.86 the "80-20" rule).
//   - Distinct values are processed in key order. Each value's records are
//     assigned to random pages within a moving window of ⌈K·T⌉ pages; when a
//     page in the window fills, the next page not in the window is added.
//     The initial window is pages [0, ⌈K·T⌉).
//   - With a small noise probability (5% in the paper) a record is placed on
//     a random non-full page outside the window.
//
// K = 0 (window collapses to one page) yields a perfectly clustered table;
// K = 1 (window = whole table) yields random placement.
//
// Two products are offered: GenerateDataset emits the logical placement
// (keys + page trace in index order) used by the large experiment sweeps,
// and Materialize turns a dataset into a real table.Table — slotted heap
// pages plus a bulk-loaded B-tree — with an identical reference trace, which
// an integration test verifies.
package datagen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"epfis/internal/lrusim"
	"epfis/internal/storage"
	"epfis/internal/table"
	"epfis/internal/zipfdist"
)

// DefaultNoise is the paper's noise factor: "In our experiments, the noise
// factor was set to 5%".
const DefaultNoise = 0.05

// Config describes one synthetic dataset.
type Config struct {
	// Name labels the dataset in reports.
	Name string
	// N is the number of records.
	N int64
	// I is the number of distinct key values.
	I int64
	// R is the number of records per page.
	R int
	// Theta is the Zipf skew of duplicates per value (0 = uniform).
	Theta float64
	// K is the clustering window size as a fraction of the table's pages.
	K float64
	// Noise is the probability a record lands outside the window;
	// negative means DefaultNoise. Use NoNoise for exactly zero.
	Noise float64
	// Seed drives the deterministic generator.
	Seed int64
	// Column names the indexed column; empty = "key".
	Column string
	// SortRIDs orders each key value's entries by page (the paper's §6
	// future-work item "indexes with sorted RIDs for a given key value").
	// The default (false) keeps insertion order, the behavior the paper's
	// model assumes.
	SortRIDs bool
	// BCardinality, when > 0, adds a minor index column b (the paper's §2
	// index on columns (a, b)) with values uniform in [1, BCardinality],
	// independent of placement. Index-sargable predicates like b = v then
	// have selectivity S = 1/BCardinality.
	BCardinality int64
}

// NoNoise disables placement noise (Noise fields are probabilities, so the
// zero value must be distinguishable from "unset").
const NoNoise = -1

// ErrBadConfig reports invalid generator parameters.
var ErrBadConfig = errors.New("datagen: invalid config")

func (c *Config) normalize() error {
	if c.Column == "" {
		c.Column = "key"
	}
	switch {
	case c.N < 1:
		return fmt.Errorf("%w: N = %d", ErrBadConfig, c.N)
	case c.I < 1 || c.I > c.N:
		return fmt.Errorf("%w: I = %d with N = %d", ErrBadConfig, c.I, c.N)
	case c.R < 1:
		return fmt.Errorf("%w: R = %d", ErrBadConfig, c.R)
	case c.K < 0 || c.K > 1:
		return fmt.Errorf("%w: K = %g", ErrBadConfig, c.K)
	case c.Theta < 0:
		return fmt.Errorf("%w: theta = %g", ErrBadConfig, c.Theta)
	}
	if c.Noise == 0 {
		c.Noise = DefaultNoise
	} else if c.Noise == NoNoise {
		c.Noise = 0
	}
	if c.Noise < 0 || c.Noise > 1 {
		return fmt.Errorf("%w: noise = %g", ErrBadConfig, c.Noise)
	}
	return nil
}

// Dataset is the logical output of the generator: record placement in index
// (key, insertion) order.
type Dataset struct {
	// Config echoes the (normalized) generator parameters.
	Config Config
	// T is the number of data pages, ceil(N/R).
	T int64
	// Keys[i] is the key value of the i-th index entry.
	Keys []int64
	// PageOf[i] is the 0-based page index holding the i-th entry's record.
	PageOf []int32
	// BVals[i] is the i-th entry's minor column value (nil when the config
	// had no BCardinality).
	BVals []uint32
}

// Trace returns the data-page reference trace of a full index scan.
func (d *Dataset) Trace() lrusim.Trace {
	tr := make(lrusim.Trace, len(d.PageOf))
	for i, p := range d.PageOf {
		tr[i] = storage.PageID(p)
	}
	return tr
}

// SliceTrace returns the trace of entries [lo, hi) — a partial scan in index
// order.
func (d *Dataset) SliceTrace(lo, hi int) lrusim.Trace {
	tr := make(lrusim.Trace, hi-lo)
	for i := range tr {
		tr[i] = storage.PageID(d.PageOf[lo+i])
	}
	return tr
}

// FilteredSliceTrace returns the trace of entries in [lo, hi) whose minor
// column equals b — the page references of a partial scan with the
// index-sargable predicate "b = v" applied before fetching. It requires a
// dataset generated with BCardinality > 0.
func (d *Dataset) FilteredSliceTrace(lo, hi int, b uint32) (lrusim.Trace, error) {
	if d.BVals == nil {
		return nil, errors.New("datagen: dataset has no minor column (BCardinality was 0)")
	}
	var tr lrusim.Trace
	for i := lo; i < hi; i++ {
		if d.BVals[i] == b {
			tr = append(tr, storage.PageID(d.PageOf[i]))
		}
	}
	return tr, nil
}

// avail is a set of page indexes with O(1) random pick and removal.
type avail struct {
	items []int32
	pos   map[int32]int
}

func newAvail(capacity int) *avail {
	return &avail{items: make([]int32, 0, capacity), pos: make(map[int32]int, capacity)}
}

func (a *avail) add(p int32) {
	a.pos[p] = len(a.items)
	a.items = append(a.items, p)
}

func (a *avail) remove(p int32) {
	i, ok := a.pos[p]
	if !ok {
		return
	}
	last := len(a.items) - 1
	a.items[i] = a.items[last]
	a.pos[a.items[i]] = i
	a.items = a.items[:last]
	delete(a.pos, p)
}

func (a *avail) contains(p int32) bool { _, ok := a.pos[p]; return ok }

func (a *avail) empty() bool { return len(a.items) == 0 }

func (a *avail) pick(rng *rand.Rand) int32 {
	return a.items[rng.Intn(len(a.items))]
}

// GenerateDataset runs the placement model and returns the logical dataset.
func GenerateDataset(cfg Config) (*Dataset, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	t := (cfg.N + int64(cfg.R) - 1) / int64(cfg.R)
	freqs, err := zipfdist.Frequencies(cfg.N, cfg.I, cfg.Theta)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	w := int64(math.Ceil(cfg.K * float64(t)))
	if w < 1 {
		w = 1
	}
	if w > t {
		w = t
	}

	window := newAvail(int(w))
	outside := newAvail(int(t - w))
	for p := int64(0); p < w; p++ {
		window.add(int32(p))
	}
	for p := w; p < t; p++ {
		outside.add(int32(p))
	}
	frontier := w // next page to pull into the window

	fill := make([]int32, t)
	capPerPage := int32(cfg.R)

	ds := &Dataset{
		Config: cfg,
		T:      t,
		Keys:   make([]int64, 0, cfg.N),
		PageOf: make([]int32, 0, cfg.N),
	}
	if cfg.BCardinality > 0 {
		ds.BVals = make([]uint32, 0, cfg.N)
	}

	// onFull handles a page reaching capacity.
	onFull := func(p int32) {
		if window.contains(p) {
			window.remove(p)
			// "the next page not in the window is added to the window":
			// advance the frontier past pages noise already filled.
			for frontier < t {
				np := int32(frontier)
				frontier++
				if fill[np] < capPerPage {
					outside.remove(np)
					window.add(np)
					break
				}
				// Full from noise: it is in neither set already.
			}
		} else {
			outside.remove(p)
		}
	}

	place := func(key int64) error {
		var p int32
		useOutside := cfg.Noise > 0 && rng.Float64() < cfg.Noise && !outside.empty()
		switch {
		case useOutside:
			p = outside.pick(rng)
		case !window.empty():
			p = window.pick(rng)
		case !outside.empty():
			// Window exhausted (all its pages full, frontier at end):
			// fall back to any remaining page.
			p = outside.pick(rng)
		default:
			return fmt.Errorf("datagen: internal: no page available with %d records placed", len(ds.Keys))
		}
		fill[p]++
		ds.Keys = append(ds.Keys, key)
		ds.PageOf = append(ds.PageOf, p)
		if cfg.BCardinality > 0 {
			ds.BVals = append(ds.BVals, uint32(1+rng.Int63n(cfg.BCardinality)))
		}
		if fill[p] == capPerPage {
			onFull(p)
		}
		return nil
	}

	for v := int64(0); v < cfg.I; v++ {
		key := v + 1 // keys are 1..I in order
		start := len(ds.PageOf)
		for r := int64(0); r < freqs[v]; r++ {
			if err := place(key); err != nil {
				return nil, err
			}
		}
		if cfg.SortRIDs {
			// §6 future work: within one key value, present RIDs in page
			// order instead of insertion order. The minor column (when
			// present) travels with its record.
			seg := ds.PageOf[start:]
			if ds.BVals == nil {
				sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
			} else {
				bseg := ds.BVals[start:]
				idx := make([]int, len(seg))
				for j := range idx {
					idx[j] = j
				}
				sort.Slice(idx, func(a, b int) bool { return seg[idx[a]] < seg[idx[b]] })
				sortedP := make([]int32, len(seg))
				sortedB := make([]uint32, len(seg))
				for j, k := range idx {
					sortedP[j], sortedB[j] = seg[k], bseg[k]
				}
				copy(seg, sortedP)
				copy(bseg, sortedB)
			}
		}
	}
	return ds, nil
}

// Materialize builds a real table (heap pages + B-tree index) realizing the
// dataset's placement exactly: the index's full-scan trace equals
// ds.Trace().
func Materialize(ds *Dataset) (*table.Table, error) {
	b, err := table.NewBuilder(ds.Config.Name, int(ds.T), ds.Config.R)
	if err != nil {
		return nil, err
	}
	for i := range ds.Keys {
		var included uint32
		if ds.BVals != nil {
			included = ds.BVals[i]
		}
		if err := b.PlaceEntry(ds.Config.Column, int(ds.PageOf[i]), ds.Keys[i], included); err != nil {
			return nil, fmt.Errorf("datagen: materialize entry %d: %w", i, err)
		}
	}
	return b.Build()
}

// Generate is GenerateDataset followed by Materialize.
func Generate(cfg Config) (*table.Table, *Dataset, error) {
	ds, err := GenerateDataset(cfg)
	if err != nil {
		return nil, nil, err
	}
	tb, err := Materialize(ds)
	if err != nil {
		return nil, nil, err
	}
	return tb, ds, nil
}

// KeyRankBounds returns, for each distinct key (1-based rank k), the index
// of its first entry in Keys, plus a final sentinel len(Keys). Scans over
// key ranges translate to slices of the entry array via this table.
func (d *Dataset) KeyRankBounds() []int {
	bounds := make([]int, 0, d.Config.I+1)
	var prev int64
	for i, k := range d.Keys {
		if i == 0 || k != prev {
			bounds = append(bounds, i)
			prev = k
		}
	}
	bounds = append(bounds, len(d.Keys))
	return bounds
}
