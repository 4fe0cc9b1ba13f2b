package simnet

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
)

// TestSteadyStateSendAllocs pins the substrate's allocation floor: once
// warm, a Multicast to N nodes allocates exactly its N payload copies
// (the sender-side copy, which the last delivery takes, plus N-1
// receiver copies) and a Unicast exactly one. Every event on the way —
// send CPU, wire, arrival, receive CPU — is a recycled record.
func TestSteadyStateSendAllocs(t *testing.T) {
	const nodes = 5
	sim := des.New(1)
	net, err := New(sim, Config{
		Nodes: nodes, PropDelay: 50 * time.Microsecond, BitsPerSecond: 10e6,
		FrameOverhead: 64, RecvCPU: 600 * time.Microsecond, SendCPU: 400 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < nodes; i++ {
		if err := net.Bind(ids.ProcID(i), func(ids.ProcID, []byte) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 256)
	multicast := func() {
		// Two back-to-back sends queue behind the CPU and the wire.
		for k := 0; k < 2; k++ {
			if err := net.Multicast(ids.ProcID(k), payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	unicast := func() {
		if err := net.Unicast(1, 3, payload); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	multicast()
	unicast()
	if got := testing.AllocsPerRun(50, multicast); got != 2*nodes {
		t.Errorf("two multicasts to %d nodes allocated %v times, want %d", nodes, got, 2*nodes)
	}
	if got := testing.AllocsPerRun(50, unicast); got != 1 {
		t.Errorf("unicast allocated %v times, want 1", got)
	}
	if want := 52*2*nodes + 52; delivered != want {
		t.Errorf("delivered %d packets, want %d", delivered, want)
	}
}

// TestHandlerBoundAtArrivalOutlivesCrash pins the receive-CPU edge of
// Crash: a packet that arrived before dst crashed is still handed, after
// its receive-CPU delay, to the handler bound when it arrived — even
// though dst crashed and was rebound in between. Packets arriving after
// the crash are dropped.
func TestHandlerBoundAtArrivalOutlivesCrash(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2, PropDelay: time.Millisecond, RecvCPU: 10 * time.Millisecond})
	var first, second []time.Duration
	if err := net.Bind(1, func(ids.ProcID, []byte) { first = append(first, sim.Now()) }); err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(0, 1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	sim.At(2*time.Millisecond, func() {
		net.Crash(1)
		if err := net.Bind(1, func(ids.ProcID, []byte) { second = append(second, sim.Now()) }); err != nil {
			t.Error(err)
		}
		if err := net.Unicast(0, 1, []byte("after")); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0] != 11*time.Millisecond {
		t.Errorf("arrival-time handler ran at %v, want once at 11ms", first)
	}
	if len(second) != 0 {
		t.Errorf("handler bound after the crash ran at %v", second)
	}
	if st := net.Stats(); st.Delivered != 1 || st.Dropped != 1 {
		t.Errorf("Delivered = %d, Dropped = %d; want 1 and 1", st.Delivered, st.Dropped)
	}
}

// TestCrashDuringSendCPUStillUsesWire pins the send-CPU edge of Crash: a
// frame still paying its sender's CPU when the sender crashes reaches
// the wire anyway — it occupies the medium for its transmission time and
// counts in WireBytes — and is dropped only at delivery.
func TestCrashDuringSendCPUStillUsesWire(t *testing.T) {
	cfg := Config{Nodes: 3, BitsPerSecond: 1e6, SendCPU: 10 * time.Millisecond}
	sim, net := newNet(t, cfg)
	got := collect(t, sim, net, 2)
	if err := net.Unicast(0, 2, make([]byte, 1000)); err != nil { // on the wire at 10ms
		t.Fatal(err)
	}
	sim.At(time.Millisecond, func() {
		if err := net.Unicast(1, 2, make([]byte, 500)); err != nil { // ready at 11ms
			t.Error(err)
		}
	})
	sim.At(5*time.Millisecond, func() { net.Crash(0) })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	// Node 1's frame waits out node 0's 8ms transmission, then takes 4ms.
	if len(*got) != 1 || (*got)[0].src != 1 || (*got)[0].at != 22*time.Millisecond {
		for _, r := range *got {
			t.Logf("node 2 received %d bytes from %v at %v", len(r.b), r.src, r.at)
		}
		t.Fatal("want only node 1's frame, at 22ms")
	}
	if st := net.Stats(); st.WireBytes != 1500 || st.Dropped != 1 {
		t.Errorf("WireBytes = %d, Dropped = %d; want 1500 and 1", st.WireBytes, st.Dropped)
	}
}
