package experiments

import (
	"context"
	"strings"
	"testing"

	"glr/internal/matrix"
)

// tinyOptions keeps experiment tests fast: one replication at 5% load.
func tinyOptions() Options {
	return Options{Runs: 1, MsgScale: 0.05, BaseSeed: 7}
}

// runExp runs one registered experiment uncached and returns its
// result.
func runExp(t *testing.T, id string, o Options) Artifact {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	arts, _, err := Run(context.Background(), &matrix.Driver{}, o, e)
	if err != nil {
		t.Fatal(err)
	}
	return arts[0]
}

func TestExperimentsRegistry(t *testing.T) {
	exps := All()
	want := []string{"ablate", "disruption", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "tab2", "tab3", "tab4", "tab5", "tab6"}
	if len(exps) != len(want) {
		t.Fatalf("got %d experiments, want %d (every table and figure + ablation + disruption)", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment[%d] = %q, want %q", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Description == "" {
			t.Errorf("experiment %q lacks documentation", id)
		}
		if e, err := Lookup(id); err != nil || e.ID != id {
			t.Errorf("Lookup(%q) = %q, %v", id, e.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentFig1(t *testing.T) {
	if out := runExp(t, "fig1", QuickOptions()).Render(); !strings.Contains(out, "Figure 1") {
		t.Error("fig1 output missing title")
	}
}

// TestExperimentSections checks every declaration at paper scale without
// running it: each section validates, GLR-vs-epidemic sections alternate
// the two protocols, and epidemic cells carry no GLR configuration.
func TestExperimentSections(t *testing.T) {
	o := PaperOptions()
	for _, e := range All() {
		secs, _ := e.declare(o)
		for _, sec := range secs {
			m := sec.Matrix
			if err := m.Validate(); err != nil {
				t.Errorf("%s: section %s: %v", e.ID, sec.Name, err)
			}
			if m.Seeds != o.Runs || m.BaseSeed != o.BaseSeed {
				t.Errorf("%s: section %s replicates %d from %d, want %d from %d",
					e.ID, sec.Name, m.Seeds, m.BaseSeed, o.Runs, o.BaseSeed)
			}
			for _, c := range m.Cells() {
				if c.Protocol == "epidemic" && c.GLR != nil {
					t.Errorf("%s: epidemic cell %s carries a GLR configuration", e.ID, c.Label())
				}
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := PaperOptions().Validate(); err != nil {
		t.Errorf("paper options invalid: %v", err)
	}
	if err := QuickOptions().Validate(); err != nil {
		t.Errorf("quick options invalid: %v", err)
	}
	bad := []Options{
		{Runs: 0, MsgScale: 1},
		{Runs: 1, MsgScale: 0},
		{Runs: 1, MsgScale: 2},
		{Runs: 1, MsgScale: 1},
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Runs: 1, MsgScale: 0.25}
	if got := o.messages(1980); got != 495 {
		t.Errorf("messages = %d, want 495", got)
	}
	if got := o.messages(1); got != 1 {
		t.Errorf("messages floor = %d, want 1", got)
	}
	// Horizon never below generation span + slack.
	if got := horizon(1000, 495); got != 495+600 {
		t.Errorf("horizon = %v, want %v (extended)", got, 495+600)
	}
	if got := horizon(3800, 10); got != 3800 {
		t.Errorf("horizon = %v, want 3800 (paper)", got)
	}
	// Table 3 at full load runs past the paper's 1200 s.
	if secs, _ := table3(PaperOptions()); secs[0].Matrix.SimTime != 1490 {
		t.Errorf("paper-scale Table 3 horizon = %v, want 1490", secs[0].Matrix.SimTime)
	}
}

func TestFig1Connectivity(t *testing.T) {
	res := fig1(tinyOptions())
	// The paper's qualitative claim must reproduce: 250 m mostly
	// connected (few components), 100 m essentially never connected.
	if res.ConnectedFrac[0] < 0.5 {
		t.Errorf("250 m connected fraction = %v, expected mostly connected", res.ConnectedFrac[0])
	}
	if res.ConnectedFrac[1] > 0.1 {
		t.Errorf("100 m connected fraction = %v, expected almost never", res.ConnectedFrac[1])
	}
	if res.EdgeCount[0].Mean <= res.EdgeCount[1].Mean {
		t.Error("larger radius must produce more edges")
	}
	out := res.Render()
	for _, want := range []string{"Figure 1", "Radius", "Connected", "O"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig3CheckInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runExp(t, "fig3", tinyOptions()).(*Fig3Result)
	if len(res.Latency) != len(res.Intervals) {
		t.Fatalf("got %d points", len(res.Latency))
	}
	for i, a := range res.Latency {
		if a.DeliveryRatio.Mean <= 0 {
			t.Errorf("interval %v: nothing delivered", res.Intervals[i])
		}
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestTable3Custody(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runExp(t, "tab3", tinyOptions()).(*Table3Result)
	if res.With.DeliveryRatio.Mean <= 0 {
		t.Fatal("custody run delivered nothing")
	}
	out := res.Render()
	if !strings.Contains(out, "custody") || !strings.Contains(out, "84.7%") {
		t.Error("render should include measured and paper values")
	}
}

func TestFig45LatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runExp(t, "fig5", tinyOptions()).(*LatencySweepResult)
	if res.Figure != "Figure 5" {
		t.Errorf("figure label = %q", res.Figure)
	}
	if len(res.GLR) != 5 || len(res.Epidemic) != 5 {
		t.Fatalf("want 5 sweep points")
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Error("render missing title")
	}
}

func TestDisruptionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runExp(t, "disruption", tinyOptions()).(*DisruptionResult)
	if len(res.Intensity) != len(DisruptionIntensities) {
		t.Fatalf("want %d sweep points, got %d", len(DisruptionIntensities), len(res.Intensity))
	}
	if res.GLR[0].DeliveryRatio.Mean == 0 {
		t.Error("fault-free GLR point delivered nothing")
	}
	out := res.Render()
	if !strings.Contains(out, "Robustness") || !strings.Contains(out, "fault intensity") {
		t.Error("render missing robustness table or curve")
	}
}

func TestDisruptionFaultsRamp(t *testing.T) {
	if got := DisruptionFaults(0); got != nil {
		t.Errorf("intensity 0 must be the empty fault set, got %v", got)
	}
	full := DisruptionFaults(1)
	if len(full) != 4 {
		t.Fatalf("want 4 composed models, got %d", len(full))
	}
	half := DisruptionFaults(0.5)
	for i := range full {
		if half[i].Kind != full[i].Kind {
			t.Errorf("model %d kind changed with intensity", i)
		}
	}
	if half[0].Rate*2 != full[0].Rate {
		t.Error("churn rate does not scale linearly with intensity")
	}
}

func TestTable4StorageSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := runExp(t, "tab4", tinyOptions()).(*Table4Result)
	if !res.StorageGrowsWithMessages() {
		t.Error("storage should grow with message count")
	}
	if !strings.Contains(res.Render(), "Table 4") {
		t.Error("render missing title")
	}
}
