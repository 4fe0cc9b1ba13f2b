package main

import (
	"fmt"

	"repro/internal/ids"
)

// maxReported bounds how many violations of one kind a gate lists.
const maxReported = 5

// check is the correctness gate over one rep's deliveries. Live members
// must agree on one total order, deliver nothing twice and nothing that
// was never cast, and respect the switching protocol's boundary: along
// each member's deliveries, the sender's send epoch at cast time never
// decreases. At the end every live member must have finished its switch
// rounds on one common epoch.
//
// It also counts the benchmark's operations: attempted is the casts made,
// failed those the system refused (Switch.Cast returned an error).
func (r *rep) check() (violations []string, attempted, failed int) {
	sc := r.sc
	reported := map[string]int{}
	report := func(kind string, format string, args ...any) {
		if reported[kind]++; reported[kind] <= maxReported {
			violations = append(violations, kind+": "+fmt.Sprintf(format, args...))
		}
	}
	if r.bad > 0 {
		report("unsent", "%d deliveries of messages never cast by their sender", r.bad)
	}
	var live []ids.ProcID
	for p := 0; p < sc.members; p++ {
		if ids.ProcID(p) != sc.victim {
			live = append(live, ids.ProcID(p))
		}
	}
	// pos[p][c] is 1 + the index of cast c in member p's log (0: not
	// delivered).
	pos := make([][]int32, sc.members)
	for p, log := range r.logs {
		pos[p] = make([]int32, len(sc.casts))
		var maxEpoch uint64
		for i, d := range log {
			if pos[p][d.cast] != 0 {
				report("duplicate", "member %d delivered cast %d twice", p, d.cast)
				continue
			}
			pos[p][d.cast] = int32(i + 1)
			e := r.made[d.cast].epoch
			if e < maxEpoch {
				report("boundary", "member %d delivered epoch-%d cast %d after epoch-%d traffic", p, e, d.cast, maxEpoch)
			}
			if e > maxEpoch {
				maxEpoch = e
			}
		}
	}
	for _, a := range live {
		for _, b := range live {
			if a >= b {
				continue
			}
			if c, ok := agree(r.logs[a], pos[b]); !ok {
				report("order", "members %d and %d deliver cast %d in different relative orders", a, b, c)
			}
		}
	}
	ref := r.sws[live[0]].Epoch()
	for _, p := range live {
		if sw := r.sws[p]; sw.Switching() || sw.Epoch() != ref {
			report("converged", "member %d ends at epoch %d (switching=%v), member %d at %d", p, sw.Epoch(), sw.Switching(), live[0], ref)
		}
	}
	// Without faults the group is reliable: every cast reaches every
	// member. Under faults, casts given up by recovery are measured by
	// delivered_frac instead.
	lossless := sc.victim < 0 && len(sc.faults) == 0
	lost := 0
	for i, m := range r.made {
		if !m.ok {
			continue
		}
		attempted++
		if !lossless {
			continue
		}
		for _, p := range live {
			if pos[p][i] == 0 {
				lost++
				break
			}
		}
	}
	if lost > 0 {
		report("lost", "%d casts never reached every member", lost)
	}
	return violations, attempted, r.castErrs
}

// agree reports whether the casts in log that member b also delivered
// appear in b's order (posB from check). On disagreement it returns the
// first cast found out of order.
func agree(log []delivery, posB []int32) (uint32, bool) {
	var last int32
	for _, d := range log {
		q := posB[d.cast]
		if q == 0 {
			continue
		}
		if q < last {
			return d.cast, false
		}
		last = q
	}
	return 0, true
}
