package main

import (
	"time"

	"repro/internal/core/switching"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
)

// The tracer times each layer from outside, by wrapping the public
// boundaries the benchmark hands to the system: the Env given to
// switching.New (its timers), each protocol layer (Cast/Send/Recv plus
// the timers it arms through its own Env), the transport Down, the
// Switch.Recv network handler, the application Up and the obs Recorder.
// The Down under a sub-protocol's bottom layer and the Up over its top
// layer lead back into the Switch, so they are wrapped too and charged
// to egress and ingress. Spans nest on one stack, so a layer's self
// time is its span minus its child spans. Wrappers draw no randomness and schedule no events of
// their own: a traced run executes exactly the untraced run's events.
//
// All methods are no-ops on a nil *tracer, and the wrapping helpers
// then return their argument unchanged, so an untraced run pays
// nothing.

// span identifies the layer a span is attributed to.
type span uint8

const (
	spanIngress span = iota // Switch.Recv (envelope, batch, overload, mux) and the Switch above a protocol
	spanEgress              // Switch.Cast and the Switch below a protocol (mux, batch, envelope)
	spanTimer               // timers armed through the Switch's Env
	spanFifo
	spanSeq
	spanTok
	spanSend // transport Cast/Send into simnet
	spanObs
	spanApp     // the benchmark's delivery collector
	spanAppCast // the benchmark encoding a cast
	numSpans
	noSpan = numSpans // a handle that leads to another layer, not the Switch
)

var spanNames = [numSpans]string{
	"switching.ingress", "switching.egress", "switching.timer",
	"fifo", "seqorder", "tokenorder", "simnet.send", "obs", "app", "app.cast",
}

type openSpan struct {
	id           span
	start, child time.Duration
}

type tracer struct {
	sim    *des.Sim
	origin time.Time
	open   []openSpan
	calls  [numSpans]uint64
	timers [numSpans]uint64
	self   [numSpans]time.Duration
	// pendingPeak is the largest DES queue seen when an outermost span
	// opened (that is, at the start of every traced event).
	pendingPeak int
}

func newTracer(sim *des.Sim) *tracer {
	return &tracer{sim: sim, origin: time.Now(), open: make([]openSpan, 0, 32)}
}

// begin opens a span and counts it as a call of its layer.
func (t *tracer) begin(id span) {
	if t == nil {
		return
	}
	t.push(id, true)
}

// push opens a span; count says whether it is a call of its layer or
// only more of the time of a call already counted.
func (t *tracer) push(id span, count bool) {
	if len(t.open) == 0 {
		if p := t.sim.Pending(); p > t.pendingPeak {
			t.pendingPeak = p
		}
	}
	if count {
		t.calls[id]++
	}
	t.open = append(t.open, openSpan{id: id, start: time.Since(t.origin)})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	top := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := now - top.start
	t.self[top.id] += d - top.child
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
	}
}

// tracedEnv attributes the callbacks of timers armed through it.
type tracedEnv struct {
	proto.Env
	t  *tracer
	id span
}

func (e tracedEnv) After(d time.Duration, fn func()) proto.Timer {
	e.t.timers[e.id]++
	return e.Env.After(d, func() {
		e.t.begin(e.id)
		fn()
		e.t.end()
	})
}

func (t *tracer) env(env proto.Env, id span) proto.Env {
	if t == nil {
		return env
	}
	if te, ok := env.(tracedEnv); ok {
		// A layer's timers are its own, not the Switch's that built it.
		env = te.Env
	}
	return tracedEnv{Env: env, t: t, id: id}
}

// tracedLayer times one protocol layer. It forwards proto.EpochAware,
// the optional interface the switching layer looks for.
type tracedLayer struct {
	t  *tracer
	id span
	l  proto.Layer
	// up and down name the span that the Switch's code reached through
	// the layer's Up or Down is charged to, or noSpan where that handle
	// leads to the neighbouring layer.
	up, down span
}

// stack wraps a two-layer sub-protocol, top layer first. The top
// layer's Up leads into the Switch's delivery path (epoch buffering,
// receive accounting, completion checks) and the bottom layer's Down
// into its transport path (mux framing, batching, the envelope); that
// code is the Switch's, so it is charged to ingress and egress rather
// than to the layer that called it.
func (t *tracer) stack(topID span, top proto.Layer, bottomID span, bottom proto.Layer) []proto.Layer {
	if t == nil {
		return []proto.Layer{top, bottom}
	}
	return []proto.Layer{
		&tracedLayer{t: t, id: topID, l: top, up: spanIngress, down: noSpan},
		&tracedLayer{t: t, id: bottomID, l: bottom, up: noSpan, down: spanEgress},
	}
}

func (l *tracedLayer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if l.down != noSpan {
		down = tracedDown{t: l.t, id: l.down, d: down}
	}
	if l.up != noSpan {
		up = tracedUp{t: l.t, id: l.up, u: up}
	}
	return l.l.Init(l.t.env(env, l.id), down, up)
}

func (l *tracedLayer) Cast(payload []byte) error {
	l.t.begin(l.id)
	err := l.l.Cast(payload)
	l.t.end()
	return err
}

func (l *tracedLayer) Send(dst ids.ProcID, payload []byte) error {
	l.t.begin(l.id)
	err := l.l.Send(dst, payload)
	l.t.end()
	return err
}

func (l *tracedLayer) Recv(src ids.ProcID, payload []byte) {
	l.t.begin(l.id)
	l.l.Recv(src, payload)
	l.t.end()
}

func (l *tracedLayer) Stop() { l.l.Stop() }

func (l *tracedLayer) SetEpoch(epoch uint64) {
	if ea, ok := l.l.(proto.EpochAware); ok {
		ea.SetEpoch(epoch)
	}
}

// tracedDown times calls down a Down. As the transport it counts each
// call into simnet; under a protocol's bottom layer it adds the
// Switch's transport path to the egress call already counted.
type tracedDown struct {
	t     *tracer
	id    span
	count bool
	d     proto.Down
}

func (t *tracer) down(d proto.Down) proto.Down {
	if t == nil {
		return d
	}
	return tracedDown{t: t, id: spanSend, count: true, d: d}
}

func (d tracedDown) Cast(payload []byte) error {
	d.t.push(d.id, d.count)
	err := d.d.Cast(payload)
	d.t.end()
	return err
}

func (d tracedDown) Send(dst ids.ProcID, payload []byte) error {
	d.t.push(d.id, d.count)
	err := d.d.Send(dst, payload)
	d.t.end()
	return err
}

// tracedUp times calls up an Up: the application's deliveries, each
// counted, or the Switch's delivery path over a protocol's top layer,
// charged to ingress without counting a frame.
type tracedUp struct {
	t     *tracer
	id    span
	count bool
	u     proto.Up
}

func (t *tracer) up(u proto.Up) proto.Up {
	if t == nil {
		return u
	}
	return tracedUp{t: t, id: spanApp, count: true, u: u}
}

func (u tracedUp) Deliver(src ids.ProcID, payload []byte) {
	u.t.push(u.id, u.count)
	u.u.Deliver(src, payload)
	u.t.end()
}

// ingress returns the network handler for sw.
func (t *tracer) ingress(sw *switching.Switch) func(ids.ProcID, []byte) {
	if t == nil {
		return sw.Recv
	}
	return func(src ids.ProcID, pkt []byte) {
		t.begin(spanIngress)
		sw.Recv(src, pkt)
		t.end()
	}
}

// tracedRecorder times event recording; it forwards Enabled so guarded
// emission sites behave exactly as under the wrapped recorder.
type tracedRecorder struct {
	t *tracer
	r obs.Recorder
}

func (t *tracer) recorder(r obs.Recorder) obs.Recorder {
	if t == nil {
		return r
	}
	return tracedRecorder{t: t, r: r}
}

func (r tracedRecorder) Record(e obs.Event) {
	r.t.begin(spanObs)
	r.r.Record(e)
	r.t.end()
}

func (r tracedRecorder) Enabled() bool { return r.r.Enabled() }

// layerMetrics derives the per-layer metrics of one traced rep. Every
// ratio's base is named in the metric: per delivered message, per call,
// per frame, per virtual second.
func (r *rep) layerMetrics(wall time.Duration, deliveries uint64) map[string]float64 {
	t := r.tr
	msgs := float64(deliveries)
	per := func(x float64) float64 { return x / msgs }
	perCall := func(id span) float64 { return ratio(float64(t.self[id]), float64(t.calls[id])) }
	// Substrate is des+simnet+simenv: the wall time outside every system
	// span, plus the time inside the transport calls into simnet.
	var system time.Duration
	var timers uint64
	for id := span(0); id < numSpans; id++ {
		timers += t.timers[id]
		if id != spanSend {
			system += t.self[id]
		}
	}
	substrate := wall - system
	ns := r.net.Stats()
	st := r.stats()
	enveloped := r.sc.sw.Defense != nil
	m := map[string]float64{
		"des.events_per_msg":                  per(float64(r.sim.Executed())),
		"des.timers_per_msg":                  per(float64(timers)),
		"des.pending_peak":                    float64(t.pendingPeak),
		"substrate.self_ns_per_msg":           per(float64(substrate)),
		"substrate.share":                     float64(substrate) / float64(wall),
		"simnet.frames_per_msg":               per(float64(ns.Unicasts + ns.Multicasts)),
		"simnet.bytes_per_msg":                per(float64(ns.WireBytes)),
		"simnet.send_ns_per_call":             perCall(spanSend),
		"simnet.dropped_frac":                 ratio(float64(ns.Dropped), float64(ns.Dropped+ns.Delivered)),
		"switching.ingress_self_ns_per_frame": perCall(spanIngress),
		"switching.egress_self_ns_per_cast":   perCall(spanEgress),
		"switching.timer_self_ns_per_msg":     per(float64(t.self[spanTimer])),
		"switching.token_passes_per_vs":       float64(st.TokenPasses) / r.sc.end.Seconds(),
		"switching.switch_success":            ratio(float64(st.SwitchesCompleted), float64(st.SwitchesCompleted+st.SwitchesAborted)),
		"switching.regens":                    float64(st.TokensRegenerated),
		"switching.shed":                      float64(st.Shed),
		"obs.events_per_msg":                  per(float64(t.calls[spanObs])),
		"obs.record_ns_per_event":             perCall(spanObs),
		"app.deliver_ns_per_msg":              perCall(spanApp),
		"app.cast_ns_per_cast":                perCall(spanAppCast),
		"trace.attributed_share":              float64(system) / float64(wall),
	}
	if enveloped {
		m["wire.writes_per_msg"] = per(float64(t.calls[spanSend]))
		m["wire.reads_per_msg"] = per(float64(t.calls[spanIngress]))
	} else {
		m["wire.writes_per_msg"], m["wire.reads_per_msg"] = 0, 0
	}
	for _, id := range []span{spanFifo, spanSeq, spanTok} {
		name := spanNames[id]
		m[name+".self_ns_per_msg"] = per(float64(t.self[id]))
		m[name+".calls_per_msg"] = per(float64(t.calls[id]))
		m[name+".timers_per_msg"] = per(float64(t.timers[id]))
	}
	return m
}
