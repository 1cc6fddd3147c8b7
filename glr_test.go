package glr

import (
	"strings"
	"testing"
)

// smallRun builds and runs a scenario, failing the test on any error.
func smallRun(t *testing.T, opts ...Option) Result {
	t.Helper()
	sc, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDefaultConfigRuns(t *testing.T) {
	res := smallRun(t, WithRange(250), WithWorkload(PaperWorkload{Messages: 20}), WithSimTime(200))
	if res.Generated != 20 {
		t.Errorf("generated %d, want 20", res.Generated)
	}
	if res.DeliveryRatio < 0.9 {
		t.Errorf("dense run delivered only %.2f", res.DeliveryRatio)
	}
	if !strings.Contains(res.String(), "delivered") {
		t.Error("Result.String should be human readable")
	}
}

func TestCompare(t *testing.T) {
	opts := []Option{WithRange(250), WithWorkload(PaperWorkload{Messages: 20}), WithSimTime(200)}
	mine := smallRun(t, append(opts, WithProtocol(GLR))...)
	base := smallRun(t, append(opts, WithProtocol(Epidemic))...)
	if mine.Generated != base.Generated {
		t.Error("both protocols must see identical workloads")
	}
	// GLR acks custody; epidemic never acks.
	if mine.Acks == 0 {
		t.Error("GLR should produce custody acks")
	}
	if base.Acks != 0 {
		t.Error("epidemic must not ack")
	}
}

func TestConfigKnobs(t *testing.T) {
	opts := []Option{WithWorkload(PaperWorkload{Messages: 10}), WithSimTime(100)}
	smallRun(t, append(opts, WithGLR(GLRConfig{CheckInterval: 0.5, Copies: 2, Location: "all"}))...)
	smallRun(t, append(opts, WithGLR(GLRConfig{Spanner: "udg", DisableFaceRouting: true, DisableHysteresis: true}))...)
	if _, err := NewScenario(append(opts, WithGLR(GLRConfig{Location: "bogus"}))...); err == nil {
		t.Error("bogus location regime accepted")
	}
	smallRun(t, append(opts, WithProtocol(Epidemic))...)
	if _, err := NewScenario(append(opts, WithProtocol("bogus"))...); err == nil {
		t.Error("bogus protocol accepted")
	}
}

func TestCustomTraffic(t *testing.T) {
	res := smallRun(t, WithRange(250), WithSimTime(120),
		WithWorkload(ScheduleWorkload{{Src: 0, Dst: 5, At: 1}, {Src: 3, Dst: 7, At: 2}}))
	if res.Generated != 2 {
		t.Errorf("generated %d, want 2", res.Generated)
	}
}

func TestStaticPlacement(t *testing.T) {
	smallRun(t, WithRange(250), WithMobility(Static{}), WithWorkload(PaperWorkload{Messages: 10}), WithSimTime(100))
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := NewScenario(WithNodes(1)); err == nil {
		t.Error("single-node scenario accepted")
	}
	if _, err := NewScenario(WithWorkload(ScheduleWorkload{{Src: 0, Dst: 0, At: 1}})); err == nil {
		t.Error("self-loop traffic accepted")
	}
}

func TestDeterministicPublicRuns(t *testing.T) {
	opts := []Option{WithRange(150), WithWorkload(PaperWorkload{Messages: 30}), WithSimTime(200)}
	if a, b := smallRun(t, opts...), smallRun(t, opts...); a != b {
		t.Error("identical scenarios must give identical results")
	}
}
