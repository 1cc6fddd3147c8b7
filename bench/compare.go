package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// errWorse reports that a comparison found a regression: a metric worse
// than its bound, a larger share of failed runs, or a missing workload.
var errWorse = errors.New("the new result is worse than the base")

// specFile is the benchmark definition whose bounds --compare applies,
// relative to the repository root the program runs from.
const specFile = "BENCHMARK.json"

// spec is the part of BENCHMARK.json a comparison needs.
type spec struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles compares two result files against the bounds of specFile.
func compareFiles(basePath, newPath string, w io.Writer) error {
	var sp spec
	var base, next document
	for _, f := range []struct {
		path string
		v    any
	}{{specFile, &sp}, {basePath, &base}, {newPath, &next}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	return compareDocs(sp, base, next, w)
}

// compareDocs prints, for every workload and end-to-end metric of the
// spec, both sides' medians and quartiles and a verdict against the
// metric's bound, plus each side's failed-run share. It returns errWorse
// when any verdict is worse, when the new side fails a larger share of
// its runs than the base (failed runs are left out of the medians, so
// they would otherwise go unseen), or when a base workload is missing
// from the new side.
func compareDocs(sp spec, base, next document, w io.Writer) error {
	nextByName := make(map[string]workloadResult, len(next.Workloads))
	for _, r := range next.Workloads {
		nextByName[r.Name] = r
	}
	regressed := false
	for _, b := range base.Workloads {
		n, ok := nextByName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from the new result  worse\n", b.Name)
			regressed = true
			continue
		}
		failed := ""
		if n.FailedRuns*b.Runs > b.FailedRuns*n.Runs {
			failed = "  worse"
			regressed = true
		}
		fmt.Fprintf(w, "%s: failed runs base %d/%d, new %d/%d%s\n", b.Name, b.FailedRuns, b.Runs, n.FailedRuns, n.Runs, failed)
		for _, m := range sp.EndToEnd {
			bs, ns := b.EndToEnd[m.Name], n.EndToEnd[m.Name]
			v := verdict(bs.summary, ns.summary, m.Better == "lower", m.Bound)
			regressed = regressed || v == worse
			fmt.Fprintf(w, "  %-15s base %10.4f [%.4f, %.4f]  new %10.4f [%.4f, %.4f] %-4s %+7.2f%%  bound %4.0f%%  %s\n",
				m.Name, bs.Median, bs.Q1, bs.Q3, ns.Median, ns.Q1, ns.Q3, m.Unit,
				100*(ns.Median-bs.Median)/bs.Median, 100*m.Bound, v)
		}
	}
	if regressed {
		return errWorse
	}
	return nil
}
