package matrix

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"glr"
)

// tinyMatrix is a single-cell, two-seed matrix small enough to simulate
// in a few milliseconds.
func tinyMatrix() glr.Matrix {
	return glr.Matrix{
		Protocols:     []glr.Protocol{glr.GLR},
		Mobilities:    []glr.MobilityKind{glr.MobilityWaypoint},
		Workloads:     []glr.WorkloadKind{glr.WorkloadUniform},
		Nodes:         []int{10},
		Ranges:        []float64{150},
		StorageLimits: []int{0},
		Messages:      6,
		SimTime:       120,
		Seeds:         2,
	}
}

func tinySections() []Section {
	return []Section{{Name: "tiny", Title: "Tiny", Matrix: tinyMatrix(), ChartX: "range", SeriesChart: true}}
}

func tinyCell(t *testing.T) glr.Cell {
	t.Helper()
	cells := tinyMatrix().Normalized().Cells()
	if len(cells) != 1 {
		t.Fatalf("tiny matrix has %d cells, want 1", len(cells))
	}
	return cells[0]
}

// TestCellKeyStable: identical specs key identically.
func TestCellKeyStable(t *testing.T) {
	c := tinyCell(t)
	if cellKey(Version, c, 1, 2) != cellKey(Version, c, 1, 2) {
		t.Fatal("identical specs produced different keys")
	}
}

// TestCellKeyPerturbation: any axis value, seed-range, or version
// perturbation changes the key.
func TestCellKeyPerturbation(t *testing.T) {
	base := tinyCell(t)
	ref := cellKey(Version, base, 1, 2)
	perturb := map[string]func() string{
		"protocol": func() string { c := base; c.Protocol = glr.Epidemic; return cellKey(Version, c, 1, 2) },
		"mobility": func() string { c := base; c.Mobility = glr.MobilityStatic; return cellKey(Version, c, 1, 2) },
		"workload": func() string { c := base; c.Workload = glr.WorkloadPoisson; return cellKey(Version, c, 1, 2) },
		"nodes":    func() string { c := base; c.Nodes++; return cellKey(Version, c, 1, 2) },
		"range":    func() string { c := base; c.Range += 10; return cellKey(Version, c, 1, 2) },
		"storage":  func() string { c := base; c.StorageLimit = 5; return cellKey(Version, c, 1, 2) },
		"messages": func() string { c := base; c.Messages++; return cellKey(Version, c, 1, 2) },
		"simtime":  func() string { c := base; c.SimTime += 1; return cellKey(Version, c, 1, 2) },
		"baseSeed": func() string { return cellKey(Version, base, 2, 2) },
		"runs":     func() string { return cellKey(Version, base, 1, 3) },
		"version":  func() string { return cellKey(Version+"-bumped", base, 1, 2) },
	}
	for name, f := range perturb {
		if f() == ref {
			t.Errorf("perturbing %s did not change the cache key", name)
		}
	}
}

// TestDriverCacheRoundTrip: a second run over the same cache serves
// every cell from disk and reproduces the computed atlas exactly.
func TestDriverCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := &Driver{Cache: dir, Workers: 1}
	cold, err := d.Run(context.Background(), tinySections())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Computed != 1 || cold.CacheHits != 0 {
		t.Fatalf("cold run: computed %d, hits %d", cold.Computed, cold.CacheHits)
	}
	warm, err := d.Run(context.Background(), tinySections())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Computed != 0 || warm.CacheHits != 1 {
		t.Fatalf("warm run: computed %d, hits %d", warm.Computed, warm.CacheHits)
	}
	if !reflect.DeepEqual(cold.Sections[0].Cells[0].Results, warm.Sections[0].Cells[0].Results) {
		t.Fatal("cached results differ from computed results")
	}
	coldMD, warmMD := cold.Markdown(nil), warm.Markdown(nil)
	if coldMD != warmMD {
		t.Fatal("cached ATLAS.md render differs from computed render")
	}
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Fatal("cached atlas.json differs from computed atlas.json")
	}
}

// TestDriverSharedCellComputedOnce: a cell two sections declare (one
// cache key) is computed and stored once, and both sections get the
// results a run of either section alone computes.
func TestDriverSharedCellComputedOnce(t *testing.T) {
	dir := t.TempDir()
	secs := []Section{
		{Name: "a", Title: "A", Matrix: tinyMatrix()},
		{Name: "b", Title: "B", Matrix: tinyMatrix()},
	}
	atlas, err := (&Driver{Cache: dir, Workers: 1}).Run(context.Background(), secs)
	if err != nil {
		t.Fatal(err)
	}
	if atlas.Computed != 1 || atlas.CacheHits != 0 {
		t.Fatalf("computed %d, hits %d; want the shared cell computed once", atlas.Computed, atlas.CacheHits)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Fatalf("cache holds %d files, want 1", len(files))
	}
	alone, err := (&Driver{Workers: 1}).Run(context.Background(), secs[1:])
	if err != nil {
		t.Fatal(err)
	}
	want := alone.Sections[0].Cells[0]
	for _, sr := range atlas.Sections {
		got := sr.Cells[0]
		if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Series, want.Series) || got.Agg != want.Agg {
			t.Fatalf("section %s: shared cell differs from a run of the section alone", sr.Name)
		}
	}
}

// TestDriverParallelMatchesSequential: each run steps its world on one
// goroutine, so the driver's only concurrency is running replications
// side by side. A four-worker sweep over several cells and seeds must
// render exactly the atlas a one-worker sweep does. Run under -race in
// CI.
func TestDriverParallelMatchesSequential(t *testing.T) {
	m := tinyMatrix()
	m.Protocols = []glr.Protocol{glr.GLR, glr.Epidemic}
	m.Seeds = 3
	secs := []Section{{Name: "tiny", Title: "Tiny", Matrix: m, ChartX: "range", SeriesChart: true}}
	render := func(workers int) string {
		atlas, err := (&Driver{Workers: workers}).Run(context.Background(), secs)
		if err != nil {
			t.Fatal(err)
		}
		js, err := atlas.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	if seq, par := render(1), render(4); seq != par {
		t.Fatalf("four-worker atlas differs from one-worker atlas:\n%s\nvs\n%s", par, seq)
	}
}

// TestDriverSeedPerturbationMisses: changing the seed range misses the
// cache even though the cell spec is unchanged.
func TestDriverSeedPerturbationMisses(t *testing.T) {
	dir := t.TempDir()
	if _, err := (&Driver{Cache: dir, Workers: 1}).Run(context.Background(), tinySections()); err != nil {
		t.Fatal(err)
	}
	secs := tinySections()
	secs[0].Matrix.BaseSeed = 7
	moved, err := (&Driver{Cache: dir, Workers: 1}).Run(context.Background(), secs)
	if err != nil {
		t.Fatal(err)
	}
	if moved.CacheHits != 0 || moved.Computed != 1 {
		t.Fatalf("seed move: computed %d, hits %d; want recompute", moved.Computed, moved.CacheHits)
	}
}

// cacheFile returns the single entry file of a cache dir.
func cacheFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir: %v, %v", entries, err)
	}
	return entries[0]
}

// TestCorruptedEntryRecomputed: a corrupted cache entry is treated as a
// miss — recomputed and rewritten — never trusted.
func TestCorruptedEntryRecomputed(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"not-json":   func([]byte) []byte { return []byte("not json at all\n") },
		"bit-flip":   func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b },
		"result-dig": func(b []byte) []byte { return []byte(strings.Replace(string(b), `"Delivered":`, `"Delivered": 9`, 1)) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d := &Driver{Cache: dir, Workers: 1}
			if _, err := d.Run(context.Background(), tinySections()); err != nil {
				t.Fatal(err)
			}
			path := cacheFile(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			orig := append([]byte(nil), raw...)
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			again, err := d.Run(context.Background(), tinySections())
			if err != nil {
				t.Fatal(err)
			}
			if again.CacheHits != 0 || again.Computed != 1 {
				t.Fatalf("corrupted entry served: computed %d, hits %d", again.Computed, again.CacheHits)
			}
			// The recompute must also repair the entry on disk.
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(healed) != string(orig) {
				t.Fatal("recomputed entry does not match the original (determinism broken)")
			}
		})
	}
}

// TestMislabeledEntryMisses: an entry whose contents answer for a
// different spec than its filename claims is rejected.
func TestMislabeledEntryMisses(t *testing.T) {
	dir := t.TempDir()
	d := &Driver{Cache: dir, Workers: 1}
	if _, err := d.Run(context.Background(), tinySections()); err != nil {
		t.Fatal(err)
	}
	src := cacheFile(t, dir)
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Install the entry under the key of a different spec.
	other := tinyCell(t)
	other.Nodes++
	otherKey := cellKey(Version, other, 1, 2)
	if err := os.WriteFile(cachePath(dir, otherKey), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadCell(dir, otherKey); ok {
		t.Fatal("cache served an entry recorded for a different spec")
	}
}

// TestGoldenRoundTrip: a golden extracted from an atlas passes against
// it, survives a file round trip, and fails once the atlas drifts.
func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	atlas, err := (&Driver{Cache: dir, Workers: 1}).Run(context.Background(), tinySections())
	if err != nil {
		t.Fatal(err)
	}
	g, err := GoldenFromAtlas(atlas, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := WriteGolden(path, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Check(atlas); err != nil {
		t.Fatalf("golden self-check failed: %v", err)
	}
	drift := *loaded
	drift.Cells = append([]GoldenCell(nil), loaded.Cells...)
	drift.Cells[0].Mean += drift.Cells[0].HalfWidth + 0.05
	if err := drift.Check(atlas); err == nil {
		t.Fatal("golden check passed despite drift beyond CI bounds")
	}
	missing := *loaded
	missing.Cells = append([]GoldenCell(nil), loaded.Cells...)
	missing.Cells[0].Label = "no/such/cell"
	if err := missing.Check(atlas); err == nil {
		t.Fatal("golden check passed with a pinned cell absent from the atlas")
	}
}

// TestMeanCurve: pointwise mean over the shortest common length, times
// on the shared sampling grid.
func TestMeanCurve(t *testing.T) {
	s := Series{Every: 5, Delivery: [][]float64{{0.2, 0.4, 0.6}, {0.4, 0.6}}}
	times, means := s.MeanCurve()
	if len(times) != 2 || len(means) != 2 {
		t.Fatalf("curve lengths: %d, %d", len(times), len(means))
	}
	if times[0] != 5 || times[1] != 10 {
		t.Fatalf("times = %v", times)
	}
	if math.Abs(means[0]-0.3) > 1e-12 || math.Abs(means[1]-0.5) > 1e-12 {
		t.Fatalf("means = %v", means)
	}
}

// FuzzCellCache: loadCell reads cache files that may be truncated,
// corrupted or hand-edited. Whatever the bytes, it must not panic, and
// it may accept an entry only when the entry keys to the requested key,
// its checksum covers its payload, and it holds one result and one
// series per recorded run.
func FuzzCellCache(f *testing.F) {
	c := glr.Matrix{Nodes: []int{10}, Protocols: []glr.Protocol{glr.GLR}}.Normalized().Cells()[0]
	key := cellKey(Version, c, 1, 2)
	dir := f.TempDir()
	valid := cacheEntry{
		Key: key, Version: Version, Cell: c, BaseSeed: 1, Runs: 2,
		Results: []glr.Result{{Generated: 6, Delivered: 4, DeliveryRatio: 4.0 / 6}, {Generated: 6}},
		Series:  Series{Every: 30, Delivery: [][]float64{{0.5, 0.75}, {0, 0}}},
	}
	if err := storeCell(dir, valid); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(cachePath(dir, key))
	if err != nil {
		f.Fatal(err)
	}
	if _, ok := loadCell(dir, key); !ok {
		f.Fatal("a freshly stored entry does not load")
	}
	s := string(raw)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(strings.Replace(s, `"Runs": 2`, `"Runs": 3`, 1)))
	f.Add([]byte(strings.Replace(s, `"Delivered": 4`, `"Delivered": 5`, 1)))
	f.Add([]byte(strings.Replace(s, `"Checksum": "`, `"Checksum": "0`, 1)))
	f.Add([]byte(`{"Key": "` + key + `", "Runs": -1, "Results": null}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(cachePath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := loadCell(dir, key)
		if !ok {
			return
		}
		switch {
		case e.Key != key || cellKey(e.Version, e.Cell, e.BaseSeed, e.Runs) != key:
			t.Fatalf("accepted an entry that keys to %s, not %s", cellKey(e.Version, e.Cell, e.BaseSeed, e.Runs), key)
		case e.Checksum != e.checksum():
			t.Fatalf("accepted an entry whose checksum %q does not cover its payload", e.Checksum)
		case len(e.Results) != e.Runs || len(e.Series.Delivery) != e.Runs:
			t.Fatalf("accepted %d results and %d series for %d runs", len(e.Results), len(e.Series.Delivery), e.Runs)
		}
	})
}
