package fault

import (
	"math"
	"reflect"
	"testing"

	"glr/internal/geom"
	"glr/internal/mobility"
)

var testRegion = mobility.Region{W: 1500, H: 300}

func compile(t *testing.T, specs []Spec, n int, seed int64) *Plan {
	t.Helper()
	p, err := Compile(specs, n, testRegion, 600, seed)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func TestValidateRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown kind", Spec{Kind: "meteor"}},
		{"negative link rate", Spec{Kind: LinkBlackout, Rate: -0.1}},
		{"link rate above one", Spec{Kind: LinkBlackout, Rate: 1.5}},
		{"negative link period", Spec{Kind: LinkBlackout, Rate: 0.2, Period: -5}},
		{"negative churn rate", Spec{Kind: Churn, Rate: -1, Duration: 10}},
		{"negative churn duration", Spec{Kind: Churn, Rate: 0.01, Duration: -10}},
		{"churn without duration", Spec{Kind: Churn, Rate: 0.01}},
		{"negative sigma", Spec{Kind: GPSNoise, Sigma: -25}},
		{"fraction above one", Spec{Kind: Byzantine, Fraction: 1.2}},
		{"negative fraction", Spec{Kind: Byzantine, Fraction: -0.2}},
		{"rect outside region", Spec{Kind: RegionBlackout, X: 1400, Y: 0, W: 200, H: 100, Start: 0, End: 100}},
		{"rect negative origin", Spec{Kind: RegionBlackout, X: -10, Y: 0, W: 50, H: 50, Start: 0, End: 100}},
		{"rect negative size", Spec{Kind: RegionBlackout, X: 0, Y: 0, W: -50, H: 50, Start: 0, End: 100}},
		{"inverted window", Spec{Kind: RegionBlackout, X: 0, Y: 0, W: 50, H: 50, Start: 100, End: 50}},
		{"negative window start", Spec{Kind: RegionBlackout, X: 0, Y: 0, W: 50, H: 50, Start: -1, End: 50}},
		{"NaN churn duration", Spec{Kind: Churn, Rate: 0.01, Duration: math.NaN()}},
		{"NaN churn rate", Spec{Kind: Churn, Rate: math.NaN(), Duration: 5}},
		{"NaN link rate", Spec{Kind: LinkBlackout, Rate: math.NaN()}},
		{"infinite link period", Spec{Kind: LinkBlackout, Rate: 0.2, Period: math.Inf(1)}},
		{"NaN sigma", Spec{Kind: GPSNoise, Sigma: math.NaN()}},
		{"infinite sigma", Spec{Kind: GPSNoise, Sigma: math.Inf(1)}},
		{"NaN fraction", Spec{Kind: Byzantine, Fraction: math.NaN()}},
		{"infinite window end", Spec{Kind: RegionBlackout, X: 0, Y: 0, W: 50, H: 50, Start: 0, End: math.Inf(1)}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(testRegion, 600); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.spec)
		}
	}
	ok := []Spec{
		{Kind: LinkBlackout, Rate: 0.3},
		{Kind: RegionBlackout, X: 100, Y: 50, W: 200, H: 100, Start: 60, End: 300},
		{Kind: Churn, Rate: 0.002, Duration: 30},
		{Kind: GPSNoise, Sigma: 25},
		{Kind: Byzantine, Fraction: 0.2},
	}
	for _, s := range ok {
		if err := s.Validate(testRegion, 600); err != nil {
			t.Errorf("Validate rejected valid spec %+v: %v", s, err)
		}
	}
}

func TestCompileEmptyIsNil(t *testing.T) {
	p, err := Compile(nil, 50, testRegion, 600, 1)
	if err != nil || p != nil {
		t.Fatalf("Compile(nil) = %v, %v; want nil plan", p, err)
	}
}

// Same seed must replay the identical schedule and identical stochastic
// verdicts; a different seed must diverge.
func TestPlanDeterministicReplay(t *testing.T) {
	specs := []Spec{
		{Kind: Churn, Rate: 0.01, Duration: 30},
		{Kind: LinkBlackout, Rate: 0.3, Period: 20},
		{Kind: GPSNoise, Sigma: 40},
		{Kind: Byzantine, Fraction: 0.25},
	}
	a := compile(t, specs, 40, 7)
	b := compile(t, specs, 40, 7)
	if !reflect.DeepEqual(a.Outages(), b.Outages()) {
		t.Fatal("same seed produced different churn schedules")
	}
	for node := 0; node < 40; node++ {
		if a.Byzantine(node) != b.Byzantine(node) {
			t.Fatalf("same seed disagrees on Byzantine(%d)", node)
		}
	}
	pos := geom.Point{X: 700, Y: 150}
	for i := 0; i < 200; i++ {
		tm := float64(i) * 2.7
		src, dst := i%40, (i*7+3)%40
		if a.BlocksReception(src, dst, tm, pos, pos) != b.BlocksReception(src, dst, tm, pos, pos) {
			t.Fatalf("same seed disagrees on BlocksReception at t=%v", tm)
		}
		if a.AdvertisedPos(src, tm, pos) != b.AdvertisedPos(src, tm, pos) {
			t.Fatalf("same seed disagrees on AdvertisedPos at t=%v", tm)
		}
	}

	c := compile(t, specs, 40, 8)
	if reflect.DeepEqual(a.Outages(), c.Outages()) {
		t.Fatal("different seeds produced identical churn schedules")
	}
}

func TestDownMatchesSchedule(t *testing.T) {
	p := compile(t, []Spec{{Kind: Churn, Rate: 0.02, Duration: 25}}, 30, 3)
	outs := p.Outages()
	if len(outs) == 0 {
		t.Fatal("expected a non-empty churn schedule")
	}
	naive := func(node int, tm float64) bool {
		for _, o := range outs {
			if o.Node == node && o.Down <= tm && tm < o.Up {
				return true
			}
		}
		return false
	}
	sawDown := false
	for node := 0; node < 30; node++ {
		for i := 0; i < 240; i++ {
			tm := float64(i) * 2.5
			got := p.Down(node, tm)
			if got != naive(node, tm) {
				t.Fatalf("Down(%d, %v) = %v, schedule says %v", node, tm, got, naive(node, tm))
			}
			sawDown = sawDown || got
		}
	}
	if !sawDown {
		t.Fatal("no sampled instant had a node down")
	}
	// Boundary semantics: down at Down, up again at Up.
	o := outs[0]
	if !p.Down(o.Node, o.Down) || p.Down(o.Node, o.Up) {
		t.Fatalf("interval [%v,%v) boundaries mishandled", o.Down, o.Up)
	}
}

func TestLinkBlackoutRateAndSymmetry(t *testing.T) {
	p := compile(t, []Spec{{Kind: LinkBlackout, Rate: 0.3, Period: 10}}, 200, 11)
	pos := geom.Point{}
	blocked, total := 0, 0
	for src := 0; src < 200; src++ {
		for d := 1; d < 5; d++ {
			dst := (src + d) % 200
			for e := 0; e < 5; e++ {
				tm := float64(e)*10 + 5
				b := p.BlocksReception(src, dst, tm, pos, pos)
				if b != p.BlocksReception(dst, src, tm, pos, pos) {
					t.Fatalf("link blackout not symmetric for (%d,%d)", src, dst)
				}
				total++
				if b {
					blocked++
				}
			}
		}
	}
	frac := float64(blocked) / float64(total)
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("blocked fraction %.3f, want ≈0.30", frac)
	}
}

func TestRegionBlackoutWindowAndRect(t *testing.T) {
	p := compile(t, []Spec{{Kind: RegionBlackout, X: 100, Y: 50, W: 200, H: 100, Start: 60, End: 300}}, 10, 1)
	in := geom.Point{X: 200, Y: 100}
	out := geom.Point{X: 800, Y: 100}
	if !p.BlocksReception(0, 1, 100, in, out) || !p.BlocksReception(0, 1, 100, out, in) {
		t.Fatal("endpoint inside the rect during the window must be blocked")
	}
	if p.BlocksReception(0, 1, 100, out, out) {
		t.Fatal("frame entirely outside the rect must pass")
	}
	if p.BlocksReception(0, 1, 30, in, in) || p.BlocksReception(0, 1, 300, in, in) {
		t.Fatal("frame outside the window must pass")
	}
	if ws := p.Windows(); len(ws) != 1 || ws[0] != (Window{Start: 60, End: 300}) {
		t.Fatalf("Windows() = %v", ws)
	}
}

func TestByzantineSelection(t *testing.T) {
	p := compile(t, []Spec{{Kind: Byzantine, Fraction: 0.25}}, 40, 5)
	count := 0
	for node := 0; node < 40; node++ {
		if p.Byzantine(node) {
			count++
		}
	}
	if count != 10 {
		t.Fatalf("Byzantine count = %d, want 10", count)
	}
	// Byzantine nodes lie: the advertised position is the mirror image.
	for node := 0; node < 40; node++ {
		truePos := geom.Point{X: 100, Y: 100}
		adv := p.AdvertisedPos(node, 1, truePos)
		if p.Byzantine(node) {
			want := geom.Point{X: testRegion.W - 100, Y: testRegion.H - 100}
			if adv != want {
				t.Fatalf("Byzantine node %d advertised %v, want %v", node, adv, want)
			}
		} else if adv != truePos {
			t.Fatalf("honest node %d advertised %v without GPS noise", node, adv)
		}
	}
}

func TestGPSNoisePerturbsWithinRegion(t *testing.T) {
	p := compile(t, []Spec{{Kind: GPSNoise, Sigma: 30}}, 10, 9)
	truePos := geom.Point{X: 10, Y: 5} // near the corner so clamping is exercised
	moved := false
	for i := 0; i < 100; i++ {
		adv := p.AdvertisedPos(3, float64(i)*1.3, truePos)
		if adv != truePos {
			moved = true
		}
		if adv.X < 0 || adv.X > testRegion.W || adv.Y < 0 || adv.Y > testRegion.H {
			t.Fatalf("advertised position %v escaped the region", adv)
		}
	}
	if !moved {
		t.Fatal("GPS noise never perturbed the advertised position")
	}
}
