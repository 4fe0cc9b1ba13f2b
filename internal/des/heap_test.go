package des

import (
	"math/rand"
	"testing"
	"time"
)

// refItem is one scheduling in the reference model: a plain list,
// searched linearly for the least (when, seq) live item.
type refItem struct {
	when    time.Duration
	seq     uint64
	key     int    // identity of what fires: a timer or a posted record
	timer   *Timer // nil for a Post
	stopped bool
	fired   bool
}

// heapDiff runs the simulator and the reference model side by side: every
// scheduling call goes to both, and every firing is checked against the
// reference's next item.
type heapDiff struct {
	t      *testing.T
	s      *Sim
	rng    *rand.Rand
	ref    []*refItem
	seq    uint64
	keys   int
	free   []*postRec // records whose postings have all fired
	budget int        // schedulings left to handlers, so the run ends
	fired  int
}

// postRec is a recyclable Post record.
type postRec struct {
	d      *heapDiff
	key    int
	queued int // postings not yet fired
}

func (r *postRec) Fire() {
	r.queued--
	r.d.onFire(r.key)
	if r.queued == 0 {
		r.d.free = append(r.d.free, r)
	}
	r.d.act()
}

func (d *heapDiff) next() *refItem {
	var best *refItem
	for _, it := range d.ref {
		if it.fired || it.stopped {
			continue
		}
		if best == nil || it.when < best.when || (it.when == best.when && it.seq < best.seq) {
			best = it
		}
	}
	return best
}

func (d *heapDiff) live() int {
	n := 0
	for _, it := range d.ref {
		if !it.fired && !it.stopped {
			n++
		}
	}
	return n
}

func (d *heapDiff) onFire(key int) {
	d.t.Helper()
	want := d.next()
	if want == nil {
		d.t.Fatalf("event %d fired with nothing live in the reference", key)
	}
	if want.key != key || want.when != d.s.Now() {
		d.t.Fatalf("fired key %d at %v, reference expects key %d at %v", key, d.s.Now(), want.key, want.when)
	}
	want.fired = true
	d.fired++
}

func (d *heapDiff) record(when time.Duration, key int, tm *Timer) {
	if when < d.s.Now() {
		when = d.s.Now()
	}
	d.ref = append(d.ref, &refItem{when: when, seq: d.seq, key: key, timer: tm})
	d.seq++
}

// offset is a delay in [-5ms, 20ms): negative ones exercise the clamp.
func (d *heapDiff) offset() time.Duration {
	return time.Duration(d.rng.Intn(25)-5) * time.Millisecond
}

func (d *heapDiff) at() {
	key := d.keys
	d.keys++
	when := d.s.Now() + d.offset()
	var tm *Timer
	tm = d.s.At(when, func() {
		if tm.Active() {
			d.t.Fatalf("timer %d still active while firing", key)
		}
		d.onFire(key)
		d.act()
	})
	d.record(when, key, tm)
}

func (d *heapDiff) after() {
	key := d.keys
	d.keys++
	off := d.offset()
	tm := d.s.After(off, func() { d.onFire(key); d.act() })
	d.record(d.s.Now()+max(off, 0), key, tm)
}

func (d *heapDiff) post() {
	var r *postRec
	switch {
	case len(d.free) > 0 && d.rng.Intn(2) == 0:
		r = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
	case d.rng.Intn(4) == 0:
		// Re-post a record that may still be queued.
		for _, it := range d.ref {
			if it.timer == nil && !it.fired {
				r = it.queuedRec(d)
				break
			}
		}
	}
	if r == nil {
		r = &postRec{d: d, key: d.keys}
		d.keys++
	}
	r.queued++
	when := d.s.Now() + d.offset()
	d.s.Post(when, r)
	d.record(when, r.key, nil)
}

// queuedRec finds the queued record behind a Post item.
func (it *refItem) queuedRec(d *heapDiff) *postRec {
	for _, e := range d.s.queue {
		if r, ok := e.ev.(*postRec); ok && r.key == it.key {
			return r
		}
	}
	return nil
}

func (d *heapDiff) stop() {
	var timers []*refItem
	for _, it := range d.ref {
		if it.timer != nil {
			timers = append(timers, it)
		}
	}
	if len(timers) == 0 {
		return
	}
	it := timers[d.rng.Intn(len(timers))]
	want := !it.fired && !it.stopped
	if got := it.timer.Stop(); got != want {
		d.t.Fatalf("Stop of timer %d = %v, want %v", it.key, got, want)
	}
	it.stopped = it.stopped || want
	if it.timer.Active() {
		d.t.Fatalf("timer %d active after Stop", it.key)
	}
	d.checkStopped()
}

// act is what a firing handler does: a few random scheduling calls.
func (d *heapDiff) act() {
	for n := d.rng.Intn(4); n > 0 && d.budget > 0; n-- {
		d.budget--
		switch d.rng.Intn(4) {
		case 0:
			d.at()
		case 1:
			d.after()
		case 2:
			d.post()
		case 3:
			d.stop()
		}
	}
	d.check()
}

// check asserts Pending matches the reference.
func (d *heapDiff) check() {
	d.t.Helper()
	if got, want := d.s.Pending(), d.live(); got != want {
		d.t.Fatalf("Pending = %d, reference has %d live", got, want)
	}
}

// checkStopped asserts the compaction bound that holds after every
// Stop: stopped entries never outnumber live ones in a queue of 64 or
// more.
func (d *heapDiff) checkStopped() {
	d.t.Helper()
	d.check()
	if len(d.s.queue) >= 64 && d.s.stopped*2 > len(d.s.queue) {
		d.t.Fatalf("%d of %d queued entries stopped: compaction missed", d.s.stopped, len(d.s.queue))
	}
}

// TestHeapMatchesReferenceOrder is a seeded differential test of the
// 4-ary heap against a reference that sorts on (when, id): random mixes
// of At, After, Post (recycled and re-posted records) and Stop, with
// past-time clamps, RunUntil deadlines and stop-heavy bursts that force
// compaction.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		d := &heapDiff{t: t, s: New(seed), rng: rand.New(rand.NewSource(seed)), budget: 3000}
		for i := 0; i < 100; i++ {
			switch d.rng.Intn(3) {
			case 0:
				d.at()
			case 1:
				d.after()
			case 2:
				d.post()
			}
		}
		for round := 0; d.s.Pending() > 0 && round < 400; round++ {
			if d.rng.Intn(8) == 0 {
				// Stop-heavy burst: resend-style timers, nearly all cancelled.
				for i := 0; i < 150; i++ {
					d.at()
					if d.rng.Intn(10) != 0 {
						it := d.ref[len(d.ref)-1]
						it.timer.Stop()
						it.stopped = true
						d.checkStopped()
					}
				}
			}
			deadline := d.s.Now() + time.Duration(d.rng.Intn(30))*time.Millisecond
			d.s.RunUntil(deadline)
			if d.s.Now() != deadline {
				t.Fatalf("seed %d: Now = %v after RunUntil(%v)", seed, d.s.Now(), deadline)
			}
			if it := d.next(); it != nil && it.when <= deadline {
				t.Fatalf("seed %d: key %d due at %v left queued past RunUntil(%v)", seed, it.key, it.when, deadline)
			}
			d.check()
		}
		if err := d.s.Run(0); err != nil {
			t.Fatal(err)
		}
		if it := d.next(); it != nil {
			t.Fatalf("seed %d: key %d never fired", seed, it.key)
		}
		if d.s.Executed() != uint64(d.fired) {
			t.Fatalf("seed %d: Executed = %d, %d firings checked", seed, d.s.Executed(), d.fired)
		}
	}
}

// countEvent is a minimal substrate event.
type countEvent struct{ n int }

func (c *countEvent) Fire() { c.n++ }

// TestPostAllocs pins the substrate path: once the queue has grown,
// posting and firing records allocates nothing.
func TestPostAllocs(t *testing.T) {
	s := New(1)
	ev := &countEvent{}
	round := func() {
		for i := 0; i < 16; i++ {
			s.Post(s.Now()+time.Duration(i%4)*time.Millisecond, ev)
		}
		for s.Step() {
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("Post+Step allocated %v times per round, want 0", allocs)
	}
	if ev.n != 16*102 {
		t.Errorf("fired %d events, want %d", ev.n, 16*102)
	}
}

func TestPostNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Post(nil) did not panic")
		}
	}()
	New(1).Post(0, nil)
}

// TestQueueShrinksAfterPeak checks a load peak's queue storage is
// released once the queue falls back.
func TestQueueShrinksAfterPeak(t *testing.T) {
	s := New(1)
	ev := &countEvent{}
	for i := 0; i < 4096; i++ {
		s.Post(time.Duration(i), ev)
	}
	peak := cap(s.queue)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if c := cap(s.queue); c > minShrinkCap || c >= peak {
		t.Errorf("drained queue keeps capacity %d (peak %d)", c, peak)
	}
}

// BenchmarkPost measures the substrate event path: post a record, fire
// it, over a standing population of far-future events.
func BenchmarkPost(b *testing.B) {
	s := New(1)
	ev := &countEvent{}
	for i := 0; i < 64; i++ {
		s.Post(time.Duration(1000+i)*time.Hour, ev)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Post(s.Now()+time.Duration(i%7)*time.Microsecond, ev)
		s.Step()
	}
}

// TestCompactionOfAllStopped drives the queue to a state where the Stop
// that triggers compaction leaves no live entry, so the rebuild starts
// from an empty heap.
func TestCompactionOfAllStopped(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.At(time.Millisecond, func() {})
		// Half the queue stopped is not yet over the compaction bound.
		s.At(time.Hour, func() { t.Error("stopped timer fired") }).Stop()
	}
	for i := 0; i < 64; i++ {
		s.Step() // the live half fires; the 64 stopped entries stay queued
	}
	last := s.At(time.Hour, func() { t.Error("stopped timer fired") })
	last.Stop()
	if s.Pending() != 0 || len(s.queue) != 0 {
		t.Fatalf("Pending = %d with %d queued, want an empty queue", s.Pending(), len(s.queue))
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 64 {
		t.Errorf("Executed = %d, want 64", s.Executed())
	}
}
