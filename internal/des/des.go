// Package des is a deterministic discrete-event simulator. It provides
// the virtual clock under all experiments in this repository: protocol
// layers run as event handlers scheduled on a single priority queue, so a
// whole 10-member group execution is sequential, reproducible from a
// seed, and orders of magnitude faster than wall-clock execution.
//
// The paper's evaluation ran on ten SparcStation-20s on a 10 Mbit
// Ethernet; we substitute this simulator (see DESIGN.md §2) because the
// phenomena behind Figure 2 — queueing at the sequencer, waiting for the
// rotating token — are latency/throughput effects that a discrete-event
// model reproduces faithfully.
package des

import (
	"fmt"
	"math/rand"
	"time"
)

// Sim is a discrete-event simulator instance. It is not safe for
// concurrent use: all handlers run on the caller's goroutine, one at a
// time, which is precisely what makes executions deterministic.
type Sim struct {
	now time.Duration
	// queue is a 4-ary min-heap on (when, id) of value entries.
	queue  []entry
	nextID uint64
	rng    *rand.Rand
	// executed counts handler invocations, for run-away detection and
	// statistics.
	executed uint64
	// stopped counts Stop()ed timers still sitting in the queue. When
	// they outnumber the live entries the heap is compacted, so
	// stop-heavy workloads (fifo resend, heartbeat, and recovery timers
	// that are almost always cancelled before firing) cannot bloat the
	// queue with dead entries.
	stopped int
}

// New returns a simulator whose random stream is derived from seed.
// Equal seeds give byte-identical executions.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), queue: make([]entry, 0, initialQueueCap)}
}

// initialQueueCap is the queue capacity a new simulator reserves. A
// 10-member group arms 90-155 timers before its first event; growing
// the queue to that size from empty would allocate about twice as much,
// all of it garbage.
const initialQueueCap = 160

// Now returns the current virtual time (zero at construction).
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded random stream. Protocol layers and
// network models must draw randomness only from here to stay
// deterministic.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events executed so far.
func (s *Sim) Executed() uint64 { return s.executed }

// Event is a handle-free scheduled event, for the simulator's own
// substrate (the network model): Fire runs when the event's time comes.
// Implementations are preallocated or recycled records, so posting one
// allocates nothing; the same record may be posted again, even while an
// earlier posting of it is still queued.
type Event interface {
	Fire()
}

// Timer is a handle to a scheduled event; it can be stopped before it
// fires.
type Timer struct {
	when    time.Duration
	fn      func()
	sim     *Sim
	stopped bool
	fired   bool
}

// timerEvent is a Timer as a queued Event; the conversion keeps Fire off
// Timer's exported method set.
type timerEvent Timer

func (t *timerEvent) Fire() {
	t.fired = true
	fn := t.fn
	t.fn = nil
	fn()
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// call prevented the timer from firing. The queue entry is reclaimed
// lazily: either when it surfaces at the top of the heap, or by a bulk
// compaction once stopped entries outnumber live ones.
func (t *Timer) Stop() bool {
	if t == nil || t.fired || t.stopped {
		return false
	}
	t.stopped = true
	t.fn = nil
	if t.sim != nil {
		t.sim.stopped++
		t.sim.compact()
	}
	return true
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return t != nil && !t.fired && !t.stopped }

// When returns the virtual time at which the timer fires (or fired).
func (t *Timer) When() time.Duration { return t.when }

// At schedules fn to run at absolute virtual time when. Scheduling in
// the past (or present) runs the event at the current time, after all
// events already queued for that time. Events at equal times fire in
// scheduling order (deterministic FIFO tie-break).
func (s *Sim) At(when time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("des: nil event function")
	}
	if when < s.now {
		when = s.now
	}
	t := &Timer{when: when, fn: fn, sim: s}
	s.push(when, (*timerEvent)(t))
	return t
}

// Post schedules ev to fire at absolute virtual time when, with At's
// clamping and tie-break rules; Post and At draw from one id sequence,
// so the two interleave in exact scheduling order. There is no handle:
// a posted event cannot be stopped.
func (s *Sim) Post(when time.Duration, ev Event) {
	if ev == nil {
		panic("des: nil event")
	}
	if when < s.now {
		when = s.now
	}
	s.push(when, ev)
}

// compact rebuilds the heap without its stopped entries once they make
// up more than half the queue (and the queue is big enough to matter).
// The rebuild keeps the (when, id) total order, so execution order — and
// thus determinism — is unaffected.
func (s *Sim) compact() {
	if len(s.queue) < 64 || s.stopped*2 <= len(s.queue) {
		return
	}
	live := s.queue[:0]
	for _, e := range s.queue {
		if !e.stopped() {
			live = append(live, e)
		}
	}
	clear(s.queue[len(live):])
	s.queue = live
	for i := (len(live)+2)/4 - 1; i >= 0; i-- { // from the last parent up
		down(live, i, live[i])
	}
	s.stopped = 0
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Step executes the next pending event, if any, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		if e.stopped() {
			s.stopped--
			continue
		}
		s.now = e.when
		s.executed++
		e.ev.Fire()
		return true
	}
	return false
}

// Run executes events until the queue is empty. maxEvents bounds the
// number of handler invocations as a run-away guard; it returns an error
// if the bound is hit (0 means no bound).
func (s *Sim) Run(maxEvents uint64) error {
	start := s.executed
	for s.Step() {
		if maxEvents > 0 && s.executed-start >= maxEvents {
			return fmt.Errorf("des: exceeded %d events at t=%v", maxEvents, s.now)
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Sim) RunUntil(deadline time.Duration) {
	for {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending returns the number of queued (unstopped) events.
func (s *Sim) Pending() int {
	return len(s.queue) - s.stopped
}

// peek returns the timestamp of the next live event.
func (s *Sim) peek() (time.Duration, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].stopped() {
			s.pop()
			s.stopped--
			continue
		}
		return s.queue[0].when, true
	}
	return 0, false
}

// entry is one queued event. Its (when, id) key is stored inline, so
// heap comparisons never follow a pointer; ids are unique, making the
// key a total order.
type entry struct {
	when time.Duration
	id   uint64
	ev   Event
}

func (a *entry) less(b *entry) bool {
	return a.when < b.when || (a.when == b.when && a.id < b.id)
}

// stopped reports whether e is a timer cancelled after it was queued.
func (e *entry) stopped() bool {
	t, ok := e.ev.(*timerEvent)
	return ok && t.stopped
}

// push queues ev under the next id. The heap is 4-ary: node i's
// children are 4i+1..4i+4, which halves the depth of a binary heap and
// keeps a node's children on one or two cache lines.
func (s *Sim) push(when time.Duration, ev Event) {
	e := entry{when: when, id: s.nextID, ev: ev}
	s.nextID++
	q := s.queue
	if len(q) == cap(q) {
		// Grow by a quarter rather than append's doubling: a load
		// peak's capacity stays until the queue falls to a quarter.
		q = append(make([]entry, 0, len(q)+len(q)/4+1), q...)
	}
	q = append(q, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// pop removes and returns the minimum entry; the queue must be
// non-empty. The vacated slot is zeroed so the queue's spare capacity
// holds no event alive, and a queue that has fallen to a quarter of its
// capacity moves to storage half the size, so one load peak does not
// stay resident for the rest of a run.
func (s *Sim) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	q = q[:n]
	if n > 0 {
		down(q, 0, last)
	}
	if c := cap(q); c > minShrinkCap && n < c/4 {
		q = append(make([]entry, 0, c/2), q...)
	}
	s.queue = q
	return top
}

// minShrinkCap is the queue capacity below which pop never shrinks it.
const minShrinkCap = 64

// down places e at slot i or below, moving smaller children up.
func down(q []entry, i int, e entry) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].less(&q[m]) {
				m = j
			}
		}
		if !q[m].less(&e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}
