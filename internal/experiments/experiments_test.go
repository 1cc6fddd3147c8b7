package experiments

import (
	"strings"
	"testing"
)

// tinyOptions keeps experiment tests fast: one replication at 5% load.
func tinyOptions() Options {
	return Options{Runs: 1, MsgScale: 0.05, BaseSeed: 7}
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
	if got := o.horizon(1000, 495); got != 495+600 {
		t.Errorf("horizon = %v, want %v (extended)", got, 495+600)
	}
	if got := o.horizon(3800, 10); got != 3800 {
		t.Errorf("horizon = %v, want 3800 (paper)", got)
	}
}

func TestFig1Connectivity(t *testing.T) {
	o := tinyOptions()
	res, err := Fig1Connectivity(o)
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Fig3CheckInterval(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Table3Custody(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
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
	o := tinyOptions()
	res, err := Fig45Latency(o, 100)
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Disruption(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Table4StorageByMessages(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.StorageGrowsWithMessages() {
		t.Error("storage should grow with message count")
	}
	if !strings.Contains(res.Render(), "Table 4") {
		t.Error("render missing title")
	}
}

func TestAggregateConfidence(t *testing.T) {
	// aggregate must produce zero halfwidth for single runs and sane CIs
	// for multiple.
	o := Options{Runs: 1, MsgScale: 1}
	agg := o.aggregate(nil)
	if agg.AvgLatency.Mean != 0 {
		t.Error("empty aggregate should be zero")
	}
}

func TestProtocolKindString(t *testing.T) {
	if ProtoGLR.String() != "GLR" || ProtoEpidemic.String() != "Epidemic" {
		t.Error("protocol names wrong")
	}
}
