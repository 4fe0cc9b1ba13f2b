package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core/switching"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/protocols/fd"
	"repro/internal/simnet"
)

// A workload is a recipe for one seeded simulation: the group, its
// network and switching configuration, and an open-loop input schedule
// (casts, switch requests, faults) generated from the seed alone. The
// system under test sees only the generated inputs.
type workload struct {
	name string
	// gen builds the inputs for one sub-seed. short shrinks the virtual
	// horizon for the self-tests.
	gen func(rng *rand.Rand, short bool) *scenario
}

// scenario is one generated simulation input.
type scenario struct {
	members int
	net     simnet.Config
	proto   [2]protoKind
	sw      switching.Config
	bodyLen int
	// casts is the open-loop schedule, sorted by due time. Each cast is
	// made when due, whatever the system's backpressure says.
	casts []cast
	// warmup: latency samples are taken only for casts due at or after
	// it. end is when the simulation stops (after a casting-free drain).
	warmup, end time.Duration
	// requests are switch requests: at, by.
	requests []request
	// level, when set, is the active-sender count at a virtual time —
	// the metric a HysteresisOracle controller at member 0 polls.
	level func(time.Duration) int
	// faults are applied to the network at their virtual times.
	faults []fault
	// crash is the crash-stop of one member (victim < 0: none).
	victim  ids.ProcID
	crashAt time.Duration
	// recorder builds the run's obs recorder (nil: obs.Nop).
	recorder func() obs.Recorder
}

type protoKind uint8

const (
	sequencer0 protoKind = iota
	sequencer1
	tokenRing
)

type cast struct {
	due    time.Duration
	sender ids.ProcID
}

type request struct {
	at time.Duration
	by ids.ProcID
}

type fault struct {
	at    time.Duration
	apply func(n *simnet.Network)
}

// subSeeds is how many distinct sub-seeds one run pools for its
// virtual-time metrics; the host-time reps cycle over them. Pooling
// twenty-four simulations keeps the tail percentiles steady from seed to
// seed (see README.md).
const subSeeds = 24

// sessionKey is the group secret of the authenticated workload.
var sessionKey = []byte("perfbench group session key")

// workloads are documented, with the reason for each, in README.md.
var workloads = []workload{
	{name: "paper-hybrid", gen: genPaperHybrid},
	{name: "saturate-authed", gen: genSaturateAuthed},
	{name: "churn-faults", gen: genChurnFaults},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// periodicCasts schedules one sender's open-loop ticks in [from, to):
// a seeded phase, then one burst per tick with ±10% seeded jitter
// around interval. active gates individual ticks.
func periodicCasts(rng *rand.Rand, p ids.ProcID, interval time.Duration, burst int, from, to time.Duration, active func(time.Duration) bool) []cast {
	var out []cast
	for t := from + time.Duration(rng.Int63n(int64(interval))); t < to; t += interval - interval/10 + time.Duration(rng.Int63n(int64(interval/5))) {
		if active != nil && !active(t) {
			continue
		}
		for b := 0; b < burst; b++ {
			out = append(out, cast{due: t, sender: p})
		}
	}
	return out
}

func sortCasts(cs []cast) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].due != cs[j].due {
			return cs[i].due < cs[j].due
		}
		return cs[i].sender < cs[j].sender
	})
}

// genPaperHybrid: ten members on the calibrated 10 Mbit Ethernet,
// 2240-byte messages at 50 msg/s per active sender. The active-sender
// count alternates a phase at or below the hysteresis band (1-5
// senders) with one above the crossover (6-7; at 8 the token ring's
// backlog grows without bound). Every (low, high) combination
// occurs the same number of times, in a seeded order, so each seed
// offers the same load mix and the same upward steps, and the
// controller switches both ways.
func genPaperHybrid(rng *rand.Rand, short bool) *scenario {
	const (
		members = 10
		rate    = 50
	)
	phase, repeats := 800*time.Millisecond, 3
	if short {
		phase, repeats = 400*time.Millisecond, 0
	}
	type step struct{ low, high int }
	var steps []step
	for r := 0; r < repeats; r++ {
		for low := 1; low <= 5; low++ {
			for high := 6; high <= 7; high++ {
				steps = append(steps, step{low, high})
			}
		}
	}
	if short {
		steps = []step{{1, 6}, {4, 7}, {2, 7}, {5, 6}, {3, 7}}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	levels := make([]int, 0, 2*len(steps))
	for _, st := range steps {
		levels = append(levels, st.low, st.high)
	}
	stop := time.Duration(len(levels)) * phase
	level := func(t time.Duration) int {
		i := int(t / phase)
		if i >= len(levels) {
			return 0
		}
		return levels[i]
	}
	sc := &scenario{
		members: members,
		net:     simnet.Ethernet10Mbit(members),
		proto:   [2]protoKind{sequencer0, tokenRing},
		bodyLen: 2240,
		warmup:  phase,
		end:     stop + 3*time.Second,
		level:   level,
		victim:  -1,
	}
	interval := time.Second / rate
	for p := 0; p < members; p++ {
		p := ids.ProcID(p)
		sc.casts = append(sc.casts, periodicCasts(rng, p, interval, 1, 0, stop,
			func(t time.Duration) bool { return int(p) < level(t) })...)
	}
	sortCasts(sc.casts)
	return sc
}

// genSaturateAuthed: E18's shape. Six members on a 100 Mbit NIC, three
// bursty senders (8 casts per tick, 600 msg/s each) of 256-byte
// payloads, the authenticated envelope without batching, and a manager
// requesting a switch every 80-120 ms so that both protocols carry
// traffic.
func genSaturateAuthed(rng *rand.Rand, short bool) *scenario {
	const (
		members = 6
		senders = 3
		burst   = 8
		rate    = 600
	)
	stop := 10 * time.Second
	if short {
		stop = time.Second
	}
	sc := &scenario{
		members: members,
		net: simnet.Config{
			Nodes:         members,
			PropDelay:     50 * time.Microsecond,
			BitsPerSecond: 100e6,
			FrameOverhead: 64,
			RecvCPU:       20 * time.Microsecond,
			SendCPU:       10 * time.Microsecond,
			// A little jitter keeps virtual times from collapsing onto
			// the few values fixed per-hop costs produce.
			Jitter: 10 * time.Microsecond,
		},
		proto: [2]protoKind{sequencer0, tokenRing},
		sw: switching.Config{
			Defense: &switching.DefenseConfig{
				QuarantineThreshold: 1 << 20,
				Auth:                &switching.AuthConfig{SessionKey: sessionKey},
			},
		},
		bodyLen: 256,
		warmup:  500 * time.Millisecond,
		end:     stop + time.Second,
		victim:  -1,
	}
	interval := burst * time.Second / rate
	for p := 0; p < senders; p++ {
		sc.casts = append(sc.casts, periodicCasts(rng, ids.ProcID(p), interval, burst, 0, stop, nil)...)
	}
	sortCasts(sc.casts)
	for t := 200*time.Millisecond + time.Duration(rng.Int63n(int64(40*time.Millisecond))); t < stop; t += 80*time.Millisecond + time.Duration(rng.Int63n(int64(40*time.Millisecond))) {
		sc.requests = append(sc.requests, request{at: t, by: 0})
	}
	return sc
}

// genChurnFaults: eight members with the sealed envelope, bounded
// queues with batching, crash recovery with the adaptive detector, and
// the metrics and telemetry recorders. Seeded faults: background drop
// and duplication, one flapping link, one slow node and a mid-run
// crash; a random member requests a switch every 150-250 ms.
func genChurnFaults(rng *rand.Rand, short bool) *scenario {
	const (
		members  = 8
		burst    = 4
		rate     = 200
		interval = 5 * time.Millisecond // token interval
	)
	stop := 8 * time.Second
	if short {
		stop = 2 * time.Second
	}
	// Members 0 and 1 anchor the two sequencers and stay healthy, so a
	// lost coordinator never stalls a sub-protocol; the faults land on
	// the rest. The flapping link runs into a member from its ring
	// successor, so the flap damping at the receiving end always engages
	// degraded-mode ring repair; the slow node and the crash victim are
	// two other members.
	flapTo := ids.ProcID(2 + rng.Intn(members-3))
	flapFrom := flapTo + 1
	var rest []ids.ProcID
	for p := ids.ProcID(2); p < members; p++ {
		if p != flapTo && p != flapFrom {
			rest = append(rest, p)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	victim, slow := rest[0], rest[1]
	frac := func(lo, hi float64) time.Duration {
		return time.Duration((lo + (hi-lo)*rng.Float64()) * float64(stop))
	}
	// The faults come one after another, so the outage after the crash
	// measures crash recovery alone.
	flapAt, slowAt, crashAt := frac(0.1, 0.15), frac(0.35, 0.4), frac(0.6, 0.65)
	sc := &scenario{
		members: members,
		net: simnet.Config{
			Nodes:     members,
			PropDelay: 300 * time.Microsecond,
			RecvCPU:   50 * time.Microsecond,
			SendCPU:   30 * time.Microsecond,
		},
		proto: [2]protoKind{sequencer0, sequencer1},
		sw: switching.Config{
			TokenInterval: interval,
			Defense:       &switching.DefenseConfig{QuarantineThreshold: 1 << 20},
			Overload: &switching.OverloadConfig{
				IngressQueueCap: 32,
				EgressQueueCap:  16,
				LowWatermark:    4,
				HighWatermark:   12,
				ServiceInterval: 200 * time.Microsecond,
				RetryBackoff:    400 * time.Microsecond,
				MaxRetryShift:   6,
				BatchMax:        4,
			},
			Recovery: &switching.RecoveryConfig{
				Detector: fd.Config{Interval: interval},
				Adaptive: &switching.AdaptiveConfig{
					RaiseLevel: 4 * obs.SuspicionScale,
					HalfLife:   20 * interval,
				},
			},
		},
		bodyLen: 128,
		warmup:  300 * time.Millisecond,
		end:     stop + 2*time.Second,
		victim:  victim,
		crashAt: crashAt,
		recorder: func() obs.Recorder {
			m := obs.NewMetrics()
			return obs.Multi(m.Recorder(), telemetry.New(telemetry.Config{Protocols: 2}))
		},
	}
	// The fault setters reject only out-of-range arguments, and these
	// are constants in range.
	sc.faults = []fault{
		{at: 0, apply: func(n *simnet.Network) { _ = n.SetFaults(0.005, 0.005, 200*time.Microsecond) }},
		{at: flapAt, apply: func(n *simnet.Network) {
			_ = n.SetFlapping(flapFrom, flapTo, 40*time.Millisecond, flapAt+stop/5)
		}},
		{at: slowAt, apply: func(n *simnet.Network) { _ = n.SetSlowNode(slow, 4) }},
		{at: slowAt + stop/8, apply: func(n *simnet.Network) { _ = n.SetSlowNode(slow, 1) }},
		{at: stop, apply: func(n *simnet.Network) { _ = n.SetFaults(0, 0, 200*time.Microsecond) }},
	}
	every := burst * time.Second / rate
	for p := 0; p < members; p++ {
		p := ids.ProcID(p)
		sc.casts = append(sc.casts, periodicCasts(rng, p, every, burst, 0, stop,
			func(t time.Duration) bool { return p != victim || t < crashAt })...)
	}
	sortCasts(sc.casts)
	for t := 150*time.Millisecond + time.Duration(rng.Int63n(int64(100*time.Millisecond))); t < stop; t += 150*time.Millisecond + time.Duration(rng.Int63n(int64(100*time.Millisecond))) {
		by := ids.ProcID(rng.Intn(members))
		if by == victim && t >= crashAt {
			by = 0
		}
		sc.requests = append(sc.requests, request{at: t, by: by})
	}
	return sc
}
