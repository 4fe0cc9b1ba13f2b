package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/core/switching"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/runtime/simenv"
	"repro/internal/simnet"
)

// rep is one execution of a scenario: the simulated group plus the
// benchmark's delivery collector.
type rep struct {
	sc   *scenario
	sim  *des.Sim
	net  *simnet.Network
	sws  []*switching.Switch
	tr   *tracer
	body []byte
	// made[i] records cast i as it was made: the sender's send epoch
	// and how many members were live. Casts by crashed senders are not
	// made.
	made []madeCast
	// logs[p] is member p's deliveries in order, preallocated so the
	// collector does not allocate in the timed region.
	logs [][]delivery
	// bad counts deliveries of messages that were never cast (or carry
	// the wrong sender).
	bad      int
	castErrs int
	next     int
	fireFn   func()
}

type madeCast struct {
	epoch uint64
	live  int
	ok    bool
}

type delivery struct {
	cast uint32
	at   time.Duration
}

// app is one member's application endpoint: it decodes the message id
// and appends to the member's log.
type app struct {
	r    *rep
	self ids.ProcID
}

func (a *app) Deliver(src ids.ProcID, payload []byte) {
	r := a.r
	id, err := proto.DecodeAppID(payload)
	i := int(uint32(id)) - 1
	if err != nil || i < 0 || i >= len(r.made) || !r.made[i].ok ||
		r.sc.casts[i].sender != ids.ProcID(id>>32) || src != r.sc.casts[i].sender {
		r.bad++
		return
	}
	r.logs[a.self] = append(r.logs[a.self], delivery{cast: uint32(i), at: r.sim.Now()})
}

// newRep allocates the collector state; it is not part of set-up time.
func newRep(sc *scenario) *rep {
	r := &rep{sc: sc, body: make([]byte, sc.bodyLen), made: make([]madeCast, len(sc.casts))}
	r.logs = make([][]delivery, sc.members)
	for p := range r.logs {
		r.logs[p] = make([]delivery, 0, len(sc.casts))
	}
	return r
}

// build assembles the simulator, network, group and switches and
// installs the input schedule — everything up to the first event.
func (r *rep) build(simSeed int64, traced bool) error {
	sc := r.sc
	r.sim = des.New(simSeed)
	if traced {
		r.tr = newTracer(r.sim)
	}
	net, err := simnet.New(r.sim, sc.net)
	if err != nil {
		return err
	}
	r.net = net
	group, err := simenv.NewGroup(r.sim, net, sc.members)
	if err != nil {
		return err
	}
	cfg := sc.sw
	cfg.Protocols = []switching.ProtocolFactory{r.factory(sc.proto[0]), r.factory(sc.proto[1])}
	if sc.recorder != nil {
		rec := r.tr.recorder(sc.recorder())
		cfg.Recorder = rec
		net.SetRecorder(rec)
	}
	for _, node := range group.Nodes() {
		a := &app{r: r, self: node.Self()}
		sw, err := switching.New(r.tr.env(node, spanTimer), r.tr.up(a), r.tr.down(node.Transport()), cfg)
		if err != nil {
			return fmt.Errorf("member %v: %w", node.Self(), err)
		}
		if err := node.BindStack(r.tr.ingress(sw)); err != nil {
			return err
		}
		r.sws = append(r.sws, sw)
	}
	if sc.level != nil {
		oracle, err := switching.NewHysteresisOracle(3.5, 5.5)
		if err != nil {
			return err
		}
		metric := func() float64 { return float64(sc.level(r.sim.Now())) }
		if _, err := switching.NewController(r.sws[0], oracle, metric, 100*time.Millisecond); err != nil {
			return err
		}
	}
	for _, q := range sc.requests {
		q := q
		r.sim.At(q.at, func() {
			if !r.net.Crashed(q.by) {
				r.sws[q.by].RequestSwitch()
			}
		})
	}
	for _, f := range sc.faults {
		f := f
		r.sim.At(f.at, func() { f.apply(r.net) })
	}
	if sc.victim >= 0 {
		r.sim.At(sc.crashAt, func() { r.net.Crash(sc.victim) })
	}
	r.fireFn = r.fire
	if len(sc.casts) > 0 {
		r.sim.At(sc.casts[0].due, r.fireFn)
	}
	return nil
}

// factory builds one sub-protocol's layers, wrapped for tracing.
func (r *rep) factory(k protoKind) switching.ProtocolFactory {
	return func(proto.Env) []proto.Layer {
		var top proto.Layer
		id := spanSeq
		switch k {
		case sequencer0:
			top = seqorder.New(0)
		case sequencer1:
			top = seqorder.New(1)
		case tokenRing:
			top, id = tokenorder.New(tokenorder.Config{HoldDelay: time.Millisecond}), spanTok
		}
		return r.tr.stack(id, top, spanFifo, fifo.New(fifo.Config{}))
	}
}

// fire makes every cast now due and re-arms for the next one: one
// pending generator event at a time, whatever the schedule's length.
func (r *rep) fire() {
	now := r.sim.Now()
	casts := r.sc.casts
	for r.next < len(casts) && casts[r.next].due <= now {
		i := r.next
		r.next++
		p := casts[i].sender
		if r.net.Crashed(p) {
			continue
		}
		sw := r.sws[p]
		r.tr.begin(spanAppCast)
		r.made[i] = madeCast{epoch: sw.SendEpoch(), live: r.live(), ok: true}
		msg := proto.AppMsg{ID: proto.MakeMsgID(p, uint32(i+1)), Sender: p, Body: r.body}.Encode()
		r.tr.end()
		r.tr.begin(spanEgress)
		err := sw.Cast(msg)
		r.tr.end()
		if err != nil {
			r.castErrs++
		}
	}
	if r.next < len(casts) {
		r.sim.At(casts[r.next].due, r.fireFn)
	}
}

func (r *rep) live() int {
	if r.sc.victim >= 0 && r.net.Crashed(r.sc.victim) {
		return r.sc.members - 1
	}
	return r.sc.members
}

func (r *rep) stop() {
	for _, sw := range r.sws {
		sw.Stop()
	}
}

// setupBuilds is how many back-to-back builds one set-up sample times.
// A single build takes ~0.2 ms, too short to time apart from scheduler
// and page-fault noise.
const setupBuilds = 64

// timeSetup returns the mean CPU time of setupBuilds builds of sc, each
// up to its first event. The simulations are never run.
func timeSetup(sc *scenario, simSeed int64) (time.Duration, error) {
	runtime.GC()
	c0 := cpuTime()
	for i := 0; i < setupBuilds; i++ {
		r := &rep{sc: sc}
		if err := r.build(simSeed, false); err != nil {
			return 0, err
		}
	}
	return (cpuTime() - c0) / setupBuilds, nil
}

// cpuTime is the CPU time the process has used, all threads, user and
// system. Host times are CPU times, not wall times: on a shared host the
// kernel leaves out the time this process waited for a CPU (run queue,
// or the hypervisor's steal time), which made wall-clock rates swing by
// a third from run to run.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repResult is what one execution measured.
type repResult struct {
	wall            time.Duration
	cpu             time.Duration // process CPU time over the same region
	mallocs, bytes  uint64
	liveHeap        uint64
	gcCycles        uint64
	gcCPU, totalCPU float64
	deliveries      uint64
	virt            virtual
	layers          map[string]float64 // traced runs only
}

// hostSample reads the runtime counters bracketing a timed region.
type hostSample struct {
	mem runtime.MemStats
	rm  []metrics.Sample
}

func readHost() hostSample {
	var h hostSample
	h.rm = []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(h.rm)
	runtime.ReadMemStats(&h.mem)
	return h
}

func float(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// execute runs one rep of sc: set-up, the timed simulation, then the
// live-heap reading, all outside any other rep's accounting.
func execute(sc *scenario, simSeed int64, traced bool) (*rep, repResult, error) {
	var res repResult
	r := newRep(sc)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	if err := r.build(simSeed, traced); err != nil {
		return nil, res, err
	}

	runtime.GC()
	before := readHost()
	c1 := cpuTime()
	t1 := time.Now()
	r.sim.RunUntil(sc.end)
	res.wall = time.Since(t1)
	res.cpu = cpuTime() - c1
	after := readHost()

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	if live.HeapAlloc > base.HeapAlloc {
		res.liveHeap = live.HeapAlloc - base.HeapAlloc
	}
	runtime.KeepAlive(r)
	r.stop()

	res.mallocs = after.mem.Mallocs - before.mem.Mallocs
	res.bytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	res.gcCycles = uint64(float(after.rm[0]) - float(before.rm[0]))
	res.gcCPU = float(after.rm[1]) - float(before.rm[1])
	res.totalCPU = float(after.rm[2]) - float(before.rm[2])
	for _, l := range r.logs {
		res.deliveries += uint64(len(l))
	}
	res.virt = r.virtual()
	if r.tr != nil {
		res.layers = r.layerMetrics(res.wall, res.deliveries)
	}
	return r, res, nil
}

// virtual is a rep's simulator-clock output; it is a pure function of
// the scenario and the simulator seed.
type virtual struct {
	events    uint64
	latencies []time.Duration
	switches  []time.Duration
	outages   []time.Duration
	// expected counts (cast, member live at cast time) pairs; delivered
	// counts deliveries of made casts.
	expected, delivered uint64
	fingerprint         uint64
}

func (r *rep) virtual() virtual {
	sc := r.sc
	v := virtual{events: r.sim.Executed()}
	for i := range r.made {
		if r.made[i].ok {
			v.expected += uint64(r.made[i].live)
		}
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, log := range r.logs {
		v.delivered += uint64(len(log))
		for _, d := range log {
			if due := sc.casts[d.cast].due; due >= sc.warmup {
				v.latencies = append(v.latencies, d.at-due)
			}
			binary.LittleEndian.PutUint64(buf[:8], uint64(d.cast))
			binary.LittleEndian.PutUint64(buf[8:], uint64(d.at))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(log)))
		h.Write(buf[:8])
	}
	binary.LittleEndian.PutUint64(buf[:8], v.events)
	binary.LittleEndian.PutUint64(buf[8:], uint64(r.bad))
	h.Write(buf[:])
	for _, sw := range r.sws {
		for _, rec := range sw.Records() {
			v.switches = append(v.switches, rec.Duration())
			binary.LittleEndian.PutUint64(buf[:8], uint64(rec.Duration()))
			h.Write(buf[:8])
		}
	}
	v.fingerprint = h.Sum64()
	v.outages = r.outages()
	return v
}

// crashWindow is how long after the crash outage looks for the
// longest delivery gap: enough for detection and ring repair.
const crashWindow = 100 * time.Millisecond

// outages are the disruptions a user of the group sees. With a crash,
// it is the longest stretch without a delivery at any survivor within
// crashWindow of the crash. Otherwise it is, per completed switch, the
// longest such stretch while the switch ran — the hiccup the paper
// contrasts with the switch's duration (section 7).
func (r *rep) outages() []time.Duration {
	if r.sc.victim >= 0 {
		return []time.Duration{r.longestGap(r.sc.crashAt, r.sc.crashAt+crashWindow)}
	}
	var out []time.Duration
	for _, sw := range r.sws {
		for _, rec := range sw.Records() {
			out = append(out, r.longestGap(rec.Started, rec.Finished))
		}
	}
	return out
}

// longestGap is the longest interval within [from, to] containing no
// delivery at some live member.
func (r *rep) longestGap(from, to time.Duration) time.Duration {
	var worst time.Duration
	for p, log := range r.logs {
		if ids.ProcID(p) == r.sc.victim {
			continue
		}
		last := from
		for i := sort.Search(len(log), func(i int) bool { return log[i].at > from }); i < len(log) && log[i].at <= to; i++ {
			if gap := log[i].at - last; gap > worst {
				worst = gap
			}
			last = log[i].at
		}
		if gap := to - last; gap > worst {
			worst = gap
		}
	}
	return worst
}

// stats sums the switching counters over the members.
func (r *rep) stats() switching.Stats {
	var s switching.Stats
	for _, sw := range r.sws {
		s.Add(sw.Stats())
	}
	return s
}
