package des

// Ticker invokes fn every interval seconds until stopped, starting at
// now + phase. It models periodic protocol behaviour (beaconing, periodic
// route checks) with an optional phase offset so that nodes do not fire in
// lockstep.
type Ticker struct {
	sched    *Scheduler
	fn       Handler
	fire     Handler // persistent tick handler (one alloc per ticker)
	interval float64
	id       EventID
	running  bool
}

// NewTicker schedules fn every interval seconds, first firing at
// now + phase. A nonpositive interval panics.
func NewTicker(sched *Scheduler, interval, phase float64, fn Handler) *Ticker {
	if interval <= 0 {
		panic("des: ticker interval must be positive")
	}
	t := &Ticker{sched: sched, fn: fn, interval: interval, running: true}
	t.fire = t.tick // bound once: rescheduling a method value per tick would allocate
	t.id = sched.After(phase, t.fire)
	return t
}

func (t *Ticker) tick() {
	if !t.running {
		return
	}
	t.fn()
	if t.running { // fn may have stopped us
		t.id = t.sched.After(t.interval, t.fire)
	}
}

// Stop halts the ticker. Safe to call multiple times and from within fn.
func (t *Ticker) Stop() {
	if !t.running {
		return
	}
	t.running = false
	t.sched.Cancel(t.id)
}
