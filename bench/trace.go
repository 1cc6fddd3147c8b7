package main

import (
	"fmt"
	"time"

	"glr/internal/core"
	"glr/internal/dtn"
	"glr/internal/sim"
)

// span is one node of a traced run's time tree, aggregated over every
// occurrence: how often it ran, its total wall time, and its self time
// (the total minus the time covered by its children).
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Count  uint64  `json:"count"`
	Total  float64 `json:"total_s"`
	Self   float64 `json:"self_s"`
}

// unattributedSpan names the part of the run no span covers: scheduler
// dispatch, the GLR route check outside ldt, protocol timers and MAC
// backoff timers.
const unattributedSpan = "unattributed"

// buildTree computes every span's self time and appends the run's
// unattributed remainder as a child of the "run" span. It fails when a
// span's children cover more than the span itself, which means two
// spans overlap and the tree is wrong.
func buildTree(spans []span) ([]span, error) {
	children := make(map[string]float64, len(spans))
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] += s.Total
		}
	}
	out := make([]span, 0, len(spans)+1)
	for _, s := range spans {
		s.Self = s.Total - children[s.Name]
		if s.Self < 0 {
			return nil, fmt.Errorf("span %s: children cover %.6fs of its %.6fs", s.Name, children[s.Name], s.Total)
		}
		if s.Name == "run" {
			out = append(out, span{Name: unattributedSpan, Parent: "run", Count: 1, Total: s.Self, Self: s.Self})
			s.Self = 0
		}
		out = append(out, s)
	}
	return out, nil
}

// clock aggregates the calls of one wrapped protocol entry point.
type clock struct {
	n uint64
	d time.Duration
}

func (c *clock) add(start time.Time) {
	c.n++
	c.d += time.Since(start)
}

// tracer times the protocol entry points of one traced world from
// outside: the factory it wraps hands every node a tracedProto.
type tracer struct {
	onFrame, onBeacon, onGenerated, storage clock
	glrs                                    []*core.GLR
}

// wrap returns a factory whose protocols report to the tracer.
func (t *tracer) wrap(f sim.ProtocolFactory) sim.ProtocolFactory {
	return func(n *sim.Node) sim.Protocol {
		p := f(n)
		if g, ok := p.(*core.GLR); ok {
			t.glrs = append(t.glrs, g)
		}
		return &tracedProto{Protocol: p, t: t}
	}
}

// coreStats sums the forwarding counters of every GLR instance.
func (t *tracer) coreStats() core.Stats {
	var s core.Stats
	for _, g := range t.glrs {
		gs := g.Stats()
		s.GreedyForwards += gs.GreedyForwards
		s.DirectForwards += gs.DirectForwards
		s.FaceForwards += gs.FaceForwards
		s.FaceFailures += gs.FaceFailures
		s.Relocations += gs.Relocations
		s.CustodyReturns += gs.CustodyReturns
	}
	return s
}

// tracedProto times a node's protocol callbacks. Every callback runs on
// the event-loop goroutine, so the tracer needs no locking.
type tracedProto struct {
	sim.Protocol
	t *tracer
}

func (p *tracedProto) OnFrame(payload any, from int) {
	start := time.Now()
	p.Protocol.OnFrame(payload, from)
	p.t.onFrame.add(start)
}

func (p *tracedProto) OnBeacon(b sim.Beacon) {
	start := time.Now()
	p.Protocol.OnBeacon(b)
	p.t.onBeacon.add(start)
}

func (p *tracedProto) OnMessageGenerated(m *dtn.Message) {
	start := time.Now()
	p.Protocol.OnMessageGenerated(m)
	p.t.onGenerated.add(start)
}

func (p *tracedProto) StorageUsed() int {
	start := time.Now()
	n := p.Protocol.StorageUsed()
	p.t.storage.add(start)
	return n
}

// Restart forwards a churn restart; without it a crashed node would keep
// its state and the traced run would diverge from the untraced one.
func (p *tracedProto) Restart() {
	if r, ok := p.Protocol.(sim.Restarter); ok {
		r.Restart()
	}
}
