// Command perfbench is the repository's benchmark. It runs one workload
// of the switching stack on the discrete-event simulator and prints
// every metric by name and unit; the last line of its output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 they are the per-layer ones, from a separate
// traced run. Inputs derive from --seed alone; the run keeps repeating
// the workload until --seconds of wall time have passed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; perLayer break
// them down. Both lists are mirrored by BENCHMARK.json.
var endToEnd = []metricDef{
	{"msgs_per_ref_s", "msg/ref-s"},
	{"allocs_per_msg", "allocs/msg"},
	{"alloc_bytes_per_msg", "B/msg"},
	{"live_heap_mb", "MiB"},
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"latency_p999_ms", "ms"},
	{"switch_p50_ms", "ms"},
	{"switch_p90_ms", "ms"},
	{"outage_ms", "ms"},
	{"delivered_frac", "ratio"},
}

var perLayer = []metricDef{
	{"des.events_per_msg", "events/msg"},
	{"des.timers_per_msg", "timers/msg"},
	{"des.pending_peak", "count"},
	{"substrate.self_ns_per_msg", "ns/msg"},
	{"substrate.share", "ratio"},
	{"simnet.frames_per_msg", "frames/msg"},
	{"simnet.bytes_per_msg", "B/msg"},
	{"simnet.send_ns_per_call", "ns/call"},
	{"simnet.dropped_frac", "ratio"},
	{"wire.writes_per_msg", "writes/msg"},
	{"wire.reads_per_msg", "reads/msg"},
	{"switching.ingress_self_ns_per_frame", "ns/frame"},
	{"switching.egress_self_ns_per_cast", "ns/cast"},
	{"switching.timer_self_ns_per_msg", "ns/msg"},
	{"switching.token_passes_per_vs", "passes/vs"},
	{"switching.switch_success", "ratio"},
	{"switching.regens", "count"},
	{"switching.shed", "count"},
	{"fifo.self_ns_per_msg", "ns/msg"},
	{"fifo.calls_per_msg", "calls/msg"},
	{"fifo.timers_per_msg", "timers/msg"},
	{"seqorder.self_ns_per_msg", "ns/msg"},
	{"seqorder.calls_per_msg", "calls/msg"},
	{"seqorder.timers_per_msg", "timers/msg"},
	{"tokenorder.self_ns_per_msg", "ns/msg"},
	{"tokenorder.calls_per_msg", "calls/msg"},
	{"tokenorder.timers_per_msg", "timers/msg"},
	{"obs.events_per_msg", "events/msg"},
	{"obs.record_ns_per_event", "ns/event"},
	{"app.deliver_ns_per_msg", "ns/msg"},
	{"app.cast_ns_per_cast", "ns/cast"},
	{"gc.cpu_share", "ratio"},
	{"gc.cycles_per_kmsg", "GCs/kmsg"},
	{"trace.overhead", "x"},
	{"trace.attributed_share", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-hybrid, saturate-authed or churn-faults")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "wall seconds to keep repeating the workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		return 2
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs       []metricDef
	notes      []string
	violations []string
}

// measure runs w for the given wall time. The seed derives subSeeds
// sub-seeds, each of which generates one simulation; a rep runs one of
// them. The first rep of every sub-seed is checked for correctness, and
// every later rep must reproduce its virtual output exactly.
//
// Untraced, a first pass makes one rep per sub-seed and pools their
// virtual-time metrics; their samples are then released, so that every
// timed rep of the second pass runs on the same small retained heap.
// The second pass cycles over the sub-seeds until the time is up and
// gives the host metrics; before each of its reps, timeSetup takes one
// set-up sample of the same sub-seed, and after each the probe times
// the host, so that a rep's host times are scaled by the mean of the
// probes on either side of it. Traced, each rep of the second pass is
// followed by a traced rep of the same sub-seed, which must reproduce
// it too.
func measure(w *workload, seed int64, seconds float64, traced, short bool) (*result, error) {
	sims := subSeeds
	if short {
		sims = 1
	}
	rng := rand.New(rand.NewSource(seed))
	scs := make([]*scenario, sims)
	simSeeds := make([]int64, sims)
	for k := range scs {
		gen := rng.Int63()
		simSeeds[k] = rng.Int63()
		scs[k] = w.gen(rand.New(rand.NewSource(gen)), short)
	}
	res := &result{Metrics: map[string]metricValue{}}
	fingerprints := make([]uint64, sims)
	checked := make([]bool, sims)
	replay := func(k int) (repResult, error) {
		r, rr, err := execute(scs[k], simSeeds[k], false)
		if err != nil {
			return rr, err
		}
		if !checked[k] {
			checked[k] = true
			fingerprints[k] = rr.virt.fingerprint
			v, attempted, failed := r.check()
			res.violations = append(res.violations, v...)
			res.Attempted += attempted
			res.Failed += failed
		} else if rr.virt.fingerprint != fingerprints[k] {
			res.violations = append(res.violations, fmt.Sprintf("determinism: sub-seed %d diverged from its first run", k))
		}
		return rr, nil
	}
	start := time.Now()
	res.defs = perLayer
	if !traced {
		res.defs = endToEnd
		first := make([]virtual, sims)
		for k := range first {
			rr, err := replay(k)
			if err != nil {
				return nil, err
			}
			first[k] = rr.virt
		}
		res.virtualMetrics(first, short)
	}
	var plain, tr []repResult
	var setups, speeds []float64
	var probes []time.Duration
	if !traced {
		probes = append(probes, probe())
	}
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		k := i % sims
		if !traced {
			d, err := timeSetup(scs[k], simSeeds[k])
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		rr, err := replay(k)
		if err != nil {
			return nil, err
		}
		rr.virt = virtual{}
		plain = append(plain, rr)
		if !traced {
			probes = append(probes, probe())
			speeds = append(speeds, 2*float64(probeRef)/float64(probes[i]+probes[i+1]))
		}
		if traced {
			t, trr, err := execute(scs[k], simSeeds[k], true)
			if err != nil {
				return nil, err
			}
			if trr.virt.fingerprint != fingerprints[k] {
				res.violations = append(res.violations, fmt.Sprintf("passivity: traced rep of sub-seed %d diverged from the untraced run", k))
			}
			if n := len(t.tr.open); n != 0 {
				res.violations = append(res.violations, fmt.Sprintf("trace accounting: %d spans of sub-seed %d left open", n, k))
			}
			trr.virt = virtual{}
			tr = append(tr, trr)
		}
	}
	if traced {
		res.layerMetrics(plain, tr)
	} else {
		res.hostMetrics(plain, setups, speeds, probes)
	}
	res.Correct = len(res.violations) == 0
	res.notes = append(res.notes,
		fmt.Sprintf("env go=%s GOMAXPROCS=%d cpus=%d os/arch=%s/%s", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("run workload=%s seed=%d sims=%d timed_reps=%d traced_reps=%d wall=%.1fs", w.name, seed, sims, len(plain), len(tr), time.Since(start).Seconds()))
	return res, nil
}

func (res *result) set(name string, v float64) {
	for _, d := range res.defs {
		if d.name == name {
			res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// hostMetrics takes medians over the timed reps. speeds[i] is the
// host's speed around rep i relative to the reference host (probeRef
// over the probes' time); rates are divided by it and set-up times
// multiplied, so both read as on the reference host.
func (res *result) hostMetrics(plain []repResult, setups, speeds []float64, probes []time.Duration) {
	med := func(f func(i int, r repResult) float64) float64 {
		xs := make([]float64, len(plain))
		for i, r := range plain {
			xs[i] = f(i, r)
		}
		return median(xs)
	}
	rate := func(i int, r repResult) float64 { return float64(r.deliveries) / r.cpu.Seconds() }
	res.set("msgs_per_ref_s", med(func(i int, r repResult) float64 { return rate(i, r) / speeds[i] }))
	res.set("allocs_per_msg", med(func(i int, r repResult) float64 { return float64(r.mallocs) / float64(r.deliveries) }))
	res.set("alloc_bytes_per_msg", med(func(i int, r repResult) float64 { return float64(r.bytes) / float64(r.deliveries) }))
	res.set("live_heap_mb", med(func(i int, r repResult) float64 { return float64(r.liveHeap) / (1 << 20) }))
	res.set("setup_s", med(func(i int, r repResult) float64 { return setups[i] * speeds[i] }))
	probeMs := make([]float64, len(probes))
	for i, p := range probes {
		probeMs[i] = ms(p)
	}
	res.notes = append(res.notes, fmt.Sprintf("host unscaled msgs_per_cpu_s=%.0f setup_cpu_s=%.4g probe_ms=%.2f (reference %.0f)",
		med(rate), median(setups), median(probeMs), ms(probeRef)))
}

// virtualMetrics pools the first pass. Short runs are too small for the
// tail percentiles, so only full runs enforce their sample counts.
func (res *result) virtualMetrics(first []virtual, short bool) {
	var lat, sw, outages []time.Duration
	var expected, delivered uint64
	for _, v := range first {
		lat = append(lat, v.latencies...)
		sw = append(sw, v.switches...)
		outages = append(outages, v.outages...)
		expected += v.expected
		delivered += v.delivered
	}
	sortDurations(lat)
	sortDurations(sw)
	sortDurations(outages)
	res.set("latency_p50_ms", ms(percentile(lat, 0.5)))
	res.set("latency_p99_ms", ms(percentile(lat, 0.99)))
	res.set("latency_p999_ms", ms(percentile(lat, 0.999)))
	res.set("switch_p50_ms", ms(percentile(sw, 0.5)))
	res.set("switch_p90_ms", ms(percentile(sw, 0.9)))
	res.set("outage_ms", ms(percentile(outages, 0.5)))
	res.set("delivered_frac", ratio(float64(delivered), float64(expected)))
	res.notes = append(res.notes,
		fmt.Sprintf("samples latency=%d switches=%d outages=%d expected=%d delivered=%d", len(lat), len(sw), len(outages), expected, delivered))
	if !short && len(lat) < 10000 {
		res.violations = append(res.violations, fmt.Sprintf("samples: %d latency samples cannot support p99.9", len(lat)))
	}
	if !short && len(sw) < 100 {
		res.violations = append(res.violations, fmt.Sprintf("samples: %d switches cannot support p90", len(sw)))
	}
}

func (res *result) layerMetrics(plain, traced []repResult) {
	for _, d := range perLayer {
		xs := make([]float64, 0, len(traced))
		for _, r := range traced {
			if v, ok := r.layers[d.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			res.set(d.name, median(xs))
		}
	}
	var gcShare, gcRate, plainRate, tracedRate []float64
	for _, r := range plain {
		gcShare = append(gcShare, ratio(r.gcCPU, r.totalCPU))
		gcRate = append(gcRate, float64(r.gcCycles)*1000/float64(r.deliveries))
		plainRate = append(plainRate, float64(r.deliveries)/r.cpu.Seconds())
	}
	for _, r := range traced {
		tracedRate = append(tracedRate, float64(r.deliveries)/r.cpu.Seconds())
	}
	res.set("gc.cpu_share", median(gcShare))
	res.set("gc.cycles_per_kmsg", median(gcRate))
	res.set("trace.overhead", median(plainRate)/median(tracedRate))
	res.notes = append(res.notes, fmt.Sprintf("tracing msgs_per_cpu_s untraced=%.0f traced=%.0f", median(plainRate), median(tracedRate)))
}

// print writes the human-readable report, then the JSON result line.
func (res *result) print(w io.Writer) error {
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, v := range res.violations {
		fmt.Fprintf(w, "# VIOLATION %s\n", v)
	}
	for _, d := range res.defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%-38s %16.6g %s\n", d.name, m.Value, d.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortDurations(xs []time.Duration) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// percentile is the nearest-rank q-quantile of sorted xs.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
