package obs

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/ids"
)

// KeySwitchDuration is the per-member histogram of initiated switch
// round durations (EvSwitchComplete).
const KeySwitchDuration = "switching/switch_duration"

// counterKey maps event types to the "<layer>/<name>" counter they
// render under; types not listed (token holds, phases, queue-depth
// samples) are trace-only. The switching-layer names are the JSON tags
// of switching.Stats, whose fields are views over the same counts.
var counterKey = [eventTypeCount]string{
	EvTokenPass:      "switching/token_passes",
	EvTokenRegen:     "switching/tokens_regenerated",
	EvSwitchStart:    "switching/switches_started",
	EvSwitchComplete: "switching/switch_rounds",
	EvSwitchAbort:    "switching/switches_aborted",
	EvEpochAdvance:   "switching/switches_completed",
	EvEpochForced:    "switching/forced_advances",
	EvBuffered:       "switching/buffered",
	EvStaleDrop:      "switching/stale_dropped",
	EvWedgeTimeout:   "switching/wedge_timeouts",
	EvSuspect:        "switching/suspects",
	EvCrash:          "net/crashes",
	EvPartition:      "net/partitions",
	EvHeal:           "net/heals",
	EvFaultSet:       "net/fault_sets",
	EvDrop:           "net/drops",
	EvDelay:          "net/delays",
	EvCorruptSet:     "net/corrupt_sets",
	EvCorrupt:        "net/corrupts",
	EvTruncate:       "net/truncates",
	EvGarbage:        "net/garbage",
	EvMalformedDrop:  "switching/malformed_dropped",
	EvQuarantine:     "switching/quarantines",
	EvAuthFail:       "switching/auth_failed",
	EvForged:         "net/forged",
	EvReplayed:       "net/replayed",
	EvShed:           "switching/shed",
	EvBackpressureOn: "switching/backpressured",
	EvRetrySend:      "switching/retried_sends",
	EvSenderSpike:    "net/sender_spikes",
	EvSuspectCleared: "switching/suspects_cleared",
	EvSuspicionRaise: "switching/suspicions_raised",
	EvSuspicionClear: "switching/suspicions_cleared",
	EvFlapPenalty:    "switching/flap_penalties",
	EvDegradedSkip:   "switching/degraded_skips",
	EvReinclude:      "switching/reincludes",
	EvLinkFaultSet:   "net/link_fault_sets",
	EvSlowNodeSet:    "net/slow_node_sets",
	EvFlapSet:        "net/flap_sets",
}

// CounterKey returns the counter an event type increments ("" for
// trace-only types).
func CounterKey(t EventType) string {
	if int(t) < len(counterKey) {
		return counterKey[t]
	}
	return ""
}

// Counts is one tally of events by type — the single counter source.
// The switching core keeps one per member and bumps it where each
// event is emitted; the metrics registry and the telemetry windows
// keep one per member as well. Every counter view (switching.Stats,
// artifact counter maps) is read from a Counts.
type Counts [eventTypeCount]uint64

// Map renders the non-zero counted entries under their CounterKey
// (nil when there are none); trace-only types are left out.
func (c *Counts) Map() map[string]uint64 {
	var out map[string]uint64
	for t, n := range c {
		if n == 0 || counterKey[t] == "" {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[counterKey[t]] = n
	}
	return out
}

// HistogramBuckets is the fixed bucket count of the deterministic
// log-scaled latency histogram: bucket 0 holds sub-microsecond
// observations, bucket i >= 1 holds [2^(i-1), 2^i) microseconds, and
// the last bucket absorbs everything above ~2^38 µs (~76 hours —
// beyond any simulated horizon).
const HistogramBuckets = 40

// Histogram is a fixed-shape log-scaled latency histogram. It contains
// no pointers, so histograms (and the stats structs embedding them)
// remain comparable with == and mergeable by plain addition — which is
// what keeps sweep aggregation independent of worker count.
type Histogram struct {
	counts [HistogramBuckets]uint64
	n      uint64
	sum    time.Duration
}

// Observe adds one duration (negative values clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	h.counts[b]++
	h.n++
	h.sum += d
}

// Merge adds another histogram's observations into h.
func (h *Histogram) Merge(o Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Counts returns the bucket counts with trailing empty buckets
// trimmed.
func (h *Histogram) Counts() []uint64 {
	last := -1
	for i, c := range h.counts {
		if c != 0 {
			last = i
		}
	}
	out := make([]uint64, last+1)
	copy(out, h.counts[:last+1])
	return out
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	return time.Duration(1<<uint(i-1)) * time.Microsecond
}

// BucketHigh returns the exclusive upper bound of bucket i. Bucket 0
// tops out at 1µs; the final bucket is open-ended, so its "bound" is
// one doubling above its lower edge — the same width rule as every
// other bucket.
func BucketHigh(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	if i >= HistogramBuckets-1 {
		return 2 * BucketLow(HistogramBuckets-1)
	}
	return BucketLow(i + 1)
}

// Quantile estimates the q-quantile (q in [0,1]; out-of-range values
// clamp) from the bucketed distribution by linear interpolation inside
// the bucket holding the target rank. Resolution is therefore the
// bucket width — a factor of two — not the exact sample. Two edge
// cases are pinned down by tests: an empty histogram returns 0, and a
// histogram whose mass sits in a single bucket returns the mean
// (Sum/Count), which is exact for a single observation and the best
// available estimate otherwise.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	occupied := 0
	for _, c := range h.counts {
		if c != 0 {
			occupied++
		}
	}
	if occupied == 1 {
		return h.sum / time.Duration(h.n)
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := BucketLow(i), BucketHigh(i)
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	// Unreachable: cum reaches h.n >= target on the last occupied bucket.
	return BucketHigh(HistogramBuckets - 1)
}

// Metrics is the per-member, per-layer registry: one event tally and
// one switch-duration histogram per member. It is itself the Recorder
// that feeds it.
type Metrics struct {
	members map[ids.ProcID]*memberMetrics
}

type memberMetrics struct {
	counts Counts
	dur    Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{members: make(map[ids.ProcID]*memberMetrics)}
}

func (m *Metrics) member(p ids.ProcID) *memberMetrics {
	mm := m.members[p]
	if mm == nil {
		mm = &memberMetrics{}
		m.members[p] = mm
	}
	return mm
}

// Record counts the event under its member, and observes the round
// duration of switch completions. Trace-only types are skipped before
// the member is looked up, so a member seen only in trace-only events
// has no registry entry.
func (m *Metrics) Record(e Event) {
	if CounterKey(e.Type) == "" {
		return
	}
	mm := m.member(e.Proc)
	mm.counts[e.Type]++
	if e.Type == EvSwitchComplete {
		mm.dur.Observe(time.Duration(e.Args[0]))
	}
}

// Enabled reports true (Recorder contract).
func (m *Metrics) Enabled() bool { return true }

// Recorder returns m as a Recorder.
func (m *Metrics) Recorder() Recorder { return m }

// Counter returns member p's count of events of type t (zero when
// absent or trace-only).
func (m *Metrics) Counter(p ids.ProcID, t EventType) uint64 {
	if mm := m.members[p]; mm != nil && CounterKey(t) != "" {
		return mm.counts[t]
	}
	return 0
}

// SwitchDuration returns member p's switch-duration histogram (nil
// when absent).
func (m *Metrics) SwitchDuration(p ids.ProcID) *Histogram {
	if mm := m.members[p]; mm != nil {
		return &mm.dur
	}
	return nil
}

// Procs returns the members present in the registry, sorted by ProcID.
func (m *Metrics) Procs() []ids.ProcID {
	out := make([]ids.ProcID, 0, len(m.members))
	for p := range m.members {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds another registry into m (sweep aggregation).
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	for p, om := range o.members {
		mm := m.member(p)
		for t, n := range om.counts {
			mm.counts[t] += n
		}
		mm.dur.Merge(om.dur)
	}
}

// HistogramJSON is a histogram's artifact form: total count, total
// duration in microseconds, and the trimmed bucket counts (bucket i
// covers [2^(i-1), 2^i) µs; bucket 0 is sub-microsecond).
type HistogramJSON struct {
	Count  uint64   `json:"count"`
	SumUS  int64    `json:"sum_us"`
	Counts []uint64 `json:"counts,omitempty"`
}

// ToJSON converts the histogram for an artifact.
func (h *Histogram) ToJSON() HistogramJSON {
	return HistogramJSON{Count: h.n, SumUS: int64(h.sum / time.Microsecond), Counts: h.Counts()}
}

// MemberMetrics is one member's registry snapshot in artifact form.
type MemberMetrics struct {
	Proc       int                      `json:"proc"`
	Counters   map[string]uint64        `json:"counters,omitempty"`
	Histograms map[string]HistogramJSON `json:"histograms,omitempty"`
}

// Snapshot renders the registry sorted by ProcID — canonical artifact
// order (encoding/json additionally sorts the map keys, so snapshot
// bytes are deterministic).
func (m *Metrics) Snapshot() []MemberMetrics {
	out := make([]MemberMetrics, 0, len(m.members))
	for _, p := range m.Procs() {
		mm := m.members[p]
		s := MemberMetrics{Proc: int(p), Counters: mm.counts.Map()}
		if mm.dur.Count() > 0 {
			s.Histograms = map[string]HistogramJSON{KeySwitchDuration: mm.dur.ToJSON()}
		}
		out = append(out, s)
	}
	return out
}
