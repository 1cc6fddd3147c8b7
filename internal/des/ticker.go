package des

// ticker invokes fn every interval seconds, starting at now + phase. It
// models periodic protocol behaviour (beaconing, periodic route checks)
// with an optional phase offset so that nodes do not fire in lockstep.
type ticker struct {
	sched    *Scheduler
	fn       Handler
	fire     Handler // persistent tick handler (one alloc per ticker)
	interval float64
}

// NewTicker schedules fn every interval seconds, first firing at
// now + phase, for as long as the scheduler runs. A nonpositive interval
// panics.
func NewTicker(sched *Scheduler, interval, phase float64, fn Handler) {
	if interval <= 0 {
		panic("des: ticker interval must be positive")
	}
	t := &ticker{sched: sched, fn: fn, interval: interval}
	t.fire = t.tick // bound once: rescheduling a method value per tick would allocate
	sched.After(phase, t.fire)
}

func (t *ticker) tick() {
	t.fn()
	t.sched.After(t.interval, t.fire)
}
