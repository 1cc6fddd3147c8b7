package sim

import (
	"slices"
	"sort"

	"glr/internal/des"
)

// beaconRing drives every node's hello from a single pending event. Node
// i fires at phase_i, phase_i+I, (phase_i+I)+I, and so on — each next
// time computed as now + interval at the exact fire time, the float
// accumulation a per-node des.Ticker would perform — and the hellos due
// at one instant go out in ascending id order. The beacon schedule is
// therefore the merge of the per-node sequences sorted by (time, id),
// while the scheduler holds one beacon event instead of one per node.
//
// Members are sorted by (phase, id) and a cursor walks them. Adding the
// interval is monotone in floating point (a ≤ b implies a+I ≤ b+I), so
// within every cycle the members' fire times keep their phase order and
// the members due at the current instant are consecutive ring positions
// starting at the cursor. Ties — bit-equal phases, or distinct phases
// that rounding merges after many additions — are put in id order before
// sending.
type beaconRing struct {
	sched    *des.Scheduler
	interval float64
	ids      []int      // member node ids, sorted by (phase, id)
	nextAt   []des.Time // next fire time per member, parallel to ids
	cursor   int        // index of the member that fires next
	due      []int      // scratch: the ids due at the firing instant
	send     func(due []int)
	fireFn   des.Handler // fire bound once (rescheduling a method value would allocate)
}

// newBeaconRing returns a ring over nodes 0..len(phases)-1 with the given
// first fire times; send receives the ids due at each firing instant.
func newBeaconRing(sched *des.Scheduler, interval float64, phases []float64, send func(due []int)) *beaconRing {
	r := &beaconRing{
		sched:    sched,
		interval: interval,
		ids:      make([]int, len(phases)),
		nextAt:   make([]des.Time, len(phases)),
		send:     send,
	}
	for i := range r.ids {
		r.ids[i] = i
	}
	// Stable sort by phase: ids start ascending, so bit-equal phases
	// stay in id order.
	sort.SliceStable(r.ids, func(a, b int) bool { return phases[r.ids[a]] < phases[r.ids[b]] })
	for i, id := range r.ids {
		r.nextAt[i] = phases[id]
	}
	r.fireFn = r.fire
	return r
}

// arm schedules the ring's single pending event at the next member's
// fire time.
func (r *beaconRing) arm() {
	r.sched.At(r.nextAt[r.cursor], r.fireFn)
}

// fire sends the hellos of every member due at the current instant,
// advances their next fire times by one interval, and re-arms. The due
// members are collected before any hello is sent: sends never touch the
// ring, so collect-then-send dispatches the identical sequence while
// letting World.sendBeacons construct a multi-member batch in parallel.
func (r *beaconRing) fire() {
	t := r.sched.Now()
	due := r.due[:0]
	for r.nextAt[r.cursor] == t {
		due = append(due, r.ids[r.cursor])
		r.nextAt[r.cursor] = t + r.interval
		r.cursor++
		if r.cursor == len(r.ids) {
			r.cursor = 0
		}
	}
	slices.Sort(due)
	r.due = due
	r.send(due)
	r.arm()
}
