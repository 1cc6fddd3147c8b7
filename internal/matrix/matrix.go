// Package matrix is the scenario-matrix driver behind cmd/glratlas and
// cmd/glrexp (whose paper experiments, internal/experiments, are
// sections of the Table-1 world): it executes the cross-product of
// scenario axes a glr.Matrix describes — protocol × mobility × workload
// × node count × transmission range × storage limit × fault set × GLR
// configuration — with multi-seed replication, collects each run's
// final metrics plus an observer time series, and aggregates mean ±
// Student-t confidence half-width per cell.
//
// The driver is resumable: every cell's replication sweep is
// content-addressed by the SHA-256 of its canonicalized spec (cell +
// seed range + atlas Version), and results are persisted in an on-disk
// cache keyed by that hash. A re-run recomputes only cells whose key
// has no valid cache entry — a new axis value, a different seed range,
// a Version bump, or a corrupted entry — so a large atlas accumulates
// incrementally across CI runs instead of being recomputed from
// scratch.
//
// The output layer renders the accumulated results as a regime-map
// atlas: docs/ATLAS.md (per-cell winners with confidence intervals and
// ASCII trend plots) and the machine-readable docs/atlas.json. One
// declared section reproduces the paper's delivery-vs-density figure
// and is diffed against committed golden numbers.
package matrix

import (
	"context"
	"fmt"

	"glr"
	"glr/internal/metrics"
	"glr/internal/runner"
)

// Version namespaces every cache key. Bump it whenever simulation
// semantics change in a way that invalidates previously computed
// results (protocol behavior, metric definitions, workload schedules);
// every cell then misses and recomputes under the new version.
const Version = "glr-atlas-v3"

// seriesPoints is the number of periodic delivery-ratio samples
// collected per run: each run is observed every SimTime/seriesPoints
// simulated seconds, so every seed of a cell samples on an identical
// grid.
const seriesPoints = 24

// Section is one named sub-matrix of an atlas: a title and prose note
// for the rendered document, the matrix to sweep, and rendering hints.
type Section struct {
	// Name is a stable slug identifying the section (golden files pin
	// sections by it).
	Name string
	// Title heads the section in ATLAS.md.
	Title string
	// Note is an optional prose paragraph rendered under the title.
	Note string
	// Matrix is the scenario cross-product to execute.
	Matrix glr.Matrix
	// ChartX, when set to the name of a numeric axis ("nodes", "range",
	// or "storage"), renders an ASCII trend plot of mean delivery ratio
	// against that axis, one series per protocol, with the remaining
	// coordinate axes pinned at their first values.
	ChartX string
	// SeriesChart renders an ASCII plot of the mean delivery-ratio time
	// series at the section's first coordinate, one series per
	// protocol.
	SeriesChart bool
}

// Driver executes sections against the result cache.
type Driver struct {
	// Cache is the on-disk result cache directory; empty disables
	// caching (every cell recomputes).
	Cache string
	// Workers bounds concurrent replications (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives one line per completed run and
	// per section summary.
	Progress func(format string, args ...any)
}

// Series is the per-cell observer time series: every seed's periodic
// delivery-ratio samples, observed every Every simulated seconds
// (first sample at Every).
type Series struct {
	Every    float64
	Delivery [][]float64 // [seed][sample]
}

// MeanCurve averages the per-seed series pointwise, over the shortest
// common length.
func (s Series) MeanCurve() (times, means []float64) {
	if len(s.Delivery) == 0 {
		return nil, nil
	}
	n := len(s.Delivery[0])
	for _, d := range s.Delivery[1:] {
		if len(d) < n {
			n = len(d)
		}
	}
	times = make([]float64, n)
	means = make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, d := range s.Delivery {
			sum += d[i]
		}
		times[i] = float64(i+1) * s.Every
		means[i] = sum / float64(len(s.Delivery))
	}
	return times, means
}

// fold aggregates a cell's per-seed results through the one
// replication fold.
func fold(results []glr.Result) metrics.Agg {
	reports := make([]metrics.Report, len(results))
	for i, r := range results {
		reports[i] = metrics.Report(r)
	}
	return metrics.Fold(reports)
}

// CellResult is one cell's accumulated outcome: the spec, its cache
// key, the per-seed results and time series, and the aggregate.
type CellResult struct {
	Cell    glr.Cell
	Key     string
	Seeds   []int64
	Results []glr.Result
	Series  Series
	Agg     metrics.Agg
	// Cached reports whether this run served the cell from the cache.
	// It is runtime information, deliberately excluded from atlas.json
	// so a fully cached regeneration is byte-identical to the run that
	// computed the cells.
	Cached bool `json:"-"`
}

// SectionResult is one executed section.
type SectionResult struct {
	Name     string
	Title    string
	Note     string `json:",omitempty"`
	Axes     []glr.Axis
	BaseSeed int64
	Runs     int
	Cells    []CellResult

	chartX      string
	seriesChart bool
}

// Atlas is the executed whole: every section's cells, ready for
// rendering.
type Atlas struct {
	Version  string
	Sections []SectionResult
	// Computed and CacheHits count cells by provenance for this run
	// (runtime information, excluded from atlas.json).
	Computed  int `json:"-"`
	CacheHits int `json:"-"`
}

// seedOut is one replication's harvest.
type seedOut struct {
	res      glr.Result
	delivery []float64
}

// pending identifies a cache key awaiting computation and the cells,
// one per section that declares it, that take its result.
type pending struct {
	at    [][2]int // (section, cell) indices into the atlas
	spec  glr.Cell
	key   string
	every float64
}

// cellPoint is the sweep point of one cell's replications: each run
// observes the cell's delivery ratio every `every` simulated seconds.
func cellPoint(spec glr.Cell, base int64, runs int, every float64) runner.Point[seedOut] {
	return runner.Point[seedOut]{Base: base, Runs: runs, Run: func(ctx context.Context, seed int64) (seedOut, error) {
		var out seedOut
		obs := &glr.Observer{
			SampleEvery: every,
			OnSample:    func(s glr.Sample) { out.delivery = append(out.delivery, s.DeliveryRatio) },
		}
		sc, err := spec.Scenario(glr.WithSeed(seed), glr.WithObserver(obs))
		if err != nil {
			return seedOut{}, fmt.Errorf("matrix: cell %s seed %d: %w", spec.Label(), seed, err)
		}
		res, err := sc.RunContext(ctx)
		if err != nil {
			return seedOut{}, fmt.Errorf("matrix: cell %s seed %d: %w", spec.Label(), seed, err)
		}
		out.res = res
		return out, nil
	}}
}

// Run executes the sections, serving every cell it can from the cache
// and computing the rest across the worker pool, then persists newly
// computed cells back to the cache. A cell several sections share (one
// cache key) is computed once. The returned atlas is fully
// aggregated and deterministic: for fixed sections and version, a fully
// cached run returns exactly what the computing run did.
func (d *Driver) Run(ctx context.Context, sections []Section) (*Atlas, error) {
	atlas := &Atlas{Version: Version}
	var (
		misses []pending
		missAt = map[string]int{}      // key → index into misses
		points []runner.Point[seedOut] // points[i] computes misses[i]
		runs   int
	)
	for si, sec := range sections {
		m := sec.Matrix.Normalized()
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("matrix: section %q: %w", sec.Name, err)
		}
		cells := m.Cells()
		sr := SectionResult{
			Name:     sec.Name,
			Title:    sec.Title,
			Note:     sec.Note,
			Axes:     m.Axes(),
			BaseSeed: m.BaseSeed,
			Runs:     m.Seeds,
			Cells:    make([]CellResult, len(cells)),

			chartX:      sec.ChartX,
			seriesChart: sec.SeriesChart,
		}
		for ci, c := range cells {
			key := cellKey(Version, c, m.BaseSeed, m.Seeds)
			cr := &sr.Cells[ci]
			*cr = CellResult{Cell: c, Key: key, Seeds: runner.Seeds(m.BaseSeed, m.Seeds)}
			if mi, ok := missAt[key]; ok {
				misses[mi].at = append(misses[mi].at, [2]int{si, ci})
				continue
			}
			if d.Cache != "" {
				if e, ok := loadCell(d.Cache, key); ok {
					cr.Results, cr.Series, cr.Cached = e.Results, e.Series, true
					atlas.CacheHits++
					continue
				}
			}
			p := pending{at: [][2]int{{si, ci}}, spec: c, key: key, every: c.SimTime / seriesPoints}
			missAt[key] = len(misses)
			misses = append(misses, p)
			points = append(points, cellPoint(c, m.BaseSeed, m.Seeds, p.every))
			runs += m.Seeds
		}
		atlas.Sections = append(atlas.Sections, sr)
	}

	// One shared pool over every missing (cell, seed): a sweep with a
	// few straggler cells still saturates the workers. Each run steps
	// on its own goroutine.
	d.progress("atlas: %d cell(s) cached, %d to compute (%d run(s))",
		atlas.CacheHits, len(misses), runs)
	outs, err := runner.Sweep(ctx, d.Workers, points, func(done int) {
		d.progress("atlas: run %d/%d done", done, runs)
	})
	if err != nil {
		return nil, err
	}

	for mi, p := range misses {
		results := make([]glr.Result, len(outs[mi]))
		series := Series{Every: p.every, Delivery: make([][]float64, len(outs[mi]))}
		for k, out := range outs[mi] {
			results[k] = out.res
			series.Delivery[k] = out.delivery
		}
		for _, at := range p.at {
			cr := &atlas.Sections[at[0]].Cells[at[1]]
			cr.Results, cr.Series = results, series
		}
		atlas.Computed++
		if d.Cache != "" {
			if err := storeCell(d.Cache, cacheEntry{
				Key: p.key, Version: Version, Cell: p.spec,
				BaseSeed: points[mi].Base, Runs: points[mi].Runs,
				Results: results, Series: series,
			}); err != nil {
				return nil, err
			}
		}
		d.progress("atlas: cell %s -> delivery %.3f", p.spec.Label(), fold(results).DeliveryRatio.Mean)
	}
	for si := range atlas.Sections {
		for ci := range atlas.Sections[si].Cells {
			cr := &atlas.Sections[si].Cells[ci]
			cr.Agg = fold(cr.Results)
		}
	}
	return atlas, nil
}

func (d *Driver) progress(format string, args ...any) {
	if d.Progress != nil {
		d.Progress(format, args...)
	}
}
