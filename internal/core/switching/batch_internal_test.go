package switching

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Unit tests for the egress batcher: coalescing, the control/heartbeat
// bypass, the epoch-flush rule (a flush never straddles a key roll),
// and the all-or-nothing receive-side unpack. These drive the batcher,
// or a bare transport pipeline, with a minimal environment so the batch
// boundaries are observable frame by frame.

type fakeTimer struct{}

func (fakeTimer) Stop() bool   { return false }
func (fakeTimer) Active() bool { return false }

// fakeEnv queues After callbacks and runs them on demand — the unit
// stand-in for the DES's deterministic same-timestamp FIFO.
type fakeEnv struct {
	self ids.ProcID
	ring *ids.Ring
	q    []func()
}

func newFakeEnv(self ids.ProcID, n int) *fakeEnv {
	members := make([]ids.ProcID, n)
	for i := range members {
		members[i] = ids.ProcID(i)
	}
	ring, err := ids.NewRing(members)
	if err != nil {
		panic(err)
	}
	return &fakeEnv{self: self, ring: ring}
}

func (f *fakeEnv) Self() ids.ProcID      { return f.self }
func (f *fakeEnv) Members() []ids.ProcID { return f.ring.Members() }
func (f *fakeEnv) Ring() *ids.Ring       { return f.ring }
func (f *fakeEnv) Now() time.Duration    { return 0 }
func (f *fakeEnv) Rand() *rand.Rand      { return rand.New(rand.NewSource(1)) }
func (f *fakeEnv) After(d time.Duration, fn func()) proto.Timer {
	f.q = append(f.q, fn)
	return fakeTimer{}
}
func (f *fakeEnv) run() {
	for len(f.q) > 0 {
		fn := f.q[0]
		f.q = f.q[1:]
		fn()
	}
}

// captureDown records every transport write, copying (the batcher hands
// out pooled buffers, exactly like a real transport sees them).
type captureDown struct {
	casts [][]byte
	sends []capturedSend
}

type capturedSend struct {
	dst ids.ProcID
	pkt []byte
}

func (c *captureDown) Cast(p []byte) error {
	c.casts = append(c.casts, append([]byte(nil), p...))
	return nil
}

func (c *captureDown) Send(dst ids.ProcID, p []byte) error {
	c.sends = append(c.sends, capturedSend{dst, append([]byte(nil), p...)})
	return nil
}

// muxFrame builds a mux frame for a channel with the given body.
func muxFrame(ch ids.ChannelID, body string) []byte {
	e := wire.NewEncoder(4 + len(body))
	e.Channel(ch)
	return e.Frame([]byte(body))
}

// unpackBatch decodes a batch frame into its inner mux frames.
func unpackBatch(t *testing.T, pkt []byte) [][]byte {
	t.Helper()
	if !isBatchFrame(pkt) {
		t.Fatalf("not a batch frame: %x", pkt)
	}
	d := wire.NewDecoder(pkt[1:])
	count := d.Uvarint()
	var out [][]byte
	for i := uint64(0); i < count; i++ {
		out = append(out, d.BytesField())
	}
	if d.Err() != nil || len(d.Remaining()) != 0 {
		t.Fatalf("bad batch structure: %x (err %v)", pkt, d.Err())
	}
	return out
}

func newTestBatcher(env *fakeEnv, down proto.Down, max int) (*Switch, *batcher) {
	s := &Switch{env: env, obs: obs.OrNop(nil)}
	b := newBatcher(s, max)
	b.down = down
	return s, b
}

// newTestPipeline builds a Switch with only its transport pipeline (the
// stages New builds from cfg) over down — no control channel, protocols
// or timers of its own, so the test drives every stage by hand.
func newTestPipeline(t *testing.T, env *fakeEnv, cfg Config, down proto.Down) *Switch {
	t.Helper()
	if cfg.TokenInterval == 0 {
		cfg.TokenInterval = time.Millisecond
	}
	s := &Switch{cfg: cfg, env: env, obs: obs.OrNop(nil)}
	if err := s.buildPipeline(down); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBatcherCoalesce(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	_, b := newTestBatcher(env, cap, 8)
	ch := ids.ProtocolChannel(0)

	f1, f2 := muxFrame(ch, "one"), muxFrame(ch, "two")
	f3 := muxFrame(ch, "to-1")
	_ = b.Cast(f1)
	_ = b.Cast(f2)
	_ = b.Send(1, f3)
	if len(cap.casts) != 0 || len(cap.sends) != 0 {
		t.Fatal("frames escaped before the flush point")
	}
	env.run()

	if len(cap.casts) != 1 || len(cap.sends) != 1 {
		t.Fatalf("got %d casts and %d sends, want 1 each", len(cap.casts), len(cap.sends))
	}
	got := unpackBatch(t, cap.casts[0])
	if len(got) != 2 || !bytes.Equal(got[0], f1) || !bytes.Equal(got[1], f2) {
		t.Fatalf("cast batch mismatch: %q", got)
	}
	gotS := unpackBatch(t, cap.sends[0].pkt)
	if cap.sends[0].dst != 1 || len(gotS) != 1 || !bytes.Equal(gotS[0], f3) {
		t.Fatalf("send batch mismatch: dst %d frames %q", cap.sends[0].dst, gotS)
	}

	// A second accumulation reuses the same buffers and flushes again.
	_ = b.Cast(f1)
	env.run()
	if len(cap.casts) != 2 {
		t.Fatalf("second flush missing: %d casts", len(cap.casts))
	}
	if got := unpackBatch(t, cap.casts[1]); len(got) != 1 || !bytes.Equal(got[0], f1) {
		t.Fatalf("second batch mismatch: %q", got)
	}
}

func TestBatcherFullAccumulatorFlushesEarly(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	_, b := newTestBatcher(env, cap, 2)
	ch := ids.ProtocolChannel(0)
	_ = b.Cast(muxFrame(ch, "a"))
	_ = b.Cast(muxFrame(ch, "b")) // hits BatchMax: immediate flush
	if len(cap.casts) != 1 {
		t.Fatalf("full accumulator did not flush: %d casts", len(cap.casts))
	}
	if got := unpackBatch(t, cap.casts[0]); len(got) != 2 {
		t.Fatalf("want 2 frames in the early flush, got %d", len(got))
	}
	env.run() // the armed timer finds nothing pending
	if len(cap.casts) != 1 {
		t.Fatal("empty flush emitted a frame")
	}
}

func TestBatcherBypassesControlAndHeartbeats(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	_, b := newTestBatcher(env, cap, 8)

	token := muxFrame(ids.ControlChannel, "token")
	hb := muxFrame(detectorChannel, "heartbeat")
	_ = b.Send(1, token)
	_ = b.Cast(hb)

	// Both passed straight through, unbatched, in legacy bytes.
	if len(cap.sends) != 1 || !bytes.Equal(cap.sends[0].pkt, token) {
		t.Fatalf("control frame was not passed through verbatim: %+v", cap.sends)
	}
	if len(cap.casts) != 1 || !bytes.Equal(cap.casts[0], hb) {
		t.Fatalf("heartbeat was not passed through verbatim: %q", cap.casts)
	}
	env.run()
	if len(cap.casts) != 1 || len(cap.sends) != 1 {
		t.Fatal("bypass frames were also batched")
	}
}

var testSessionKey = []byte("batch-test session key")

// openSealed verifies one captured auth-envelope write and returns its
// sealing epoch and the mux frames of the batch inside.
func openSealed(t *testing.T, pkt []byte) (uint64, [][]byte) {
	t.Helper()
	epoch, err := wire.AuthEpoch(pkt)
	if err != nil {
		t.Fatalf("not an auth envelope: %x", pkt)
	}
	inner, err := wire.OpenAuth(wire.DeriveEpochKey(testSessionKey, epoch), pkt)
	if err != nil {
		t.Fatalf("write does not verify under its epoch %d: %v", epoch, err)
	}
	return epoch, unpackBatch(t, inner)
}

// TestBatcherEpochFlushRule pins the rule that a batch never straddles
// a key roll, at the two real roll sites of an auth + batching
// pipeline: the send-epoch advance (setSendEpoch) and the verified-ahead
// epoch advance (a frame arriving sealed under a newer epoch). Frames
// accumulated before each roll must leave as their own wire write,
// sealed under the old epoch, never coalesced with frames sealed after.
func TestBatcherEpochFlushRule(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	s := newTestPipeline(t, env, Config{
		Overload: &OverloadConfig{IngressQueueCap: 16, EgressQueueCap: 16, BatchMax: 8},
		Defense:  &DefenseConfig{QuarantineThreshold: 100, Auth: &AuthConfig{SessionKey: testSessionKey}},
	}, cap)
	ch := ids.ProtocolChannel(0)
	port := s.mux.Port(ch)

	_ = port.Cast([]byte("epoch0-a"))
	_ = port.Cast([]byte("epoch0-b"))
	s.setSendEpoch(1) // send-epoch roll
	_ = port.Cast([]byte("epoch1-a"))
	env.run()
	_ = port.Cast([]byte("epoch1-b"))
	// A genuine frame from a member that already rolled to epoch 2: the
	// verified MAC moves this member's sealing epoch ahead.
	ahead := wire.SealAuth(wire.DeriveEpochKey(testSessionKey, 2), 2, muxFrame(ids.ControlChannel, "token"))
	s.Recv(1, ahead)
	_ = port.Cast([]byte("epoch2-a"))
	env.run()

	want := []struct {
		epoch  uint64
		bodies []string
	}{
		{0, []string{"epoch0-a", "epoch0-b"}},
		{1, []string{"epoch1-a"}},
		{1, []string{"epoch1-b"}},
		{2, []string{"epoch2-a"}},
	}
	if len(cap.casts) != len(want) {
		t.Fatalf("got %d wire writes, want %d (one per sealing epoch run)", len(cap.casts), len(want))
	}
	for i, w := range want {
		epoch, frames := openSealed(t, cap.casts[i])
		if epoch != w.epoch {
			t.Errorf("write %d sealed under epoch %d, want %d", i, epoch, w.epoch)
		}
		if len(frames) != len(w.bodies) {
			t.Fatalf("write %d carries %d frames, want %d", i, len(frames), len(w.bodies))
		}
		for j, body := range w.bodies {
			if !bytes.Equal(frames[j], muxFrame(ch, body)) {
				t.Errorf("write %d frame %d = %q, want %q", i, j, frames[j], body)
			}
		}
	}
}

// recvHarness builds a Switch whose pipeline has the overload stage with
// batching, over a multiplex with one bound channel recording
// deliveries. Admitted frames sit in the ingress queue until env.run.
func recvHarness(t *testing.T) (*Switch, *fakeEnv, *[][]byte) {
	t.Helper()
	env := newFakeEnv(0, 3)
	s := newTestPipeline(t, env, Config{
		Overload: &OverloadConfig{IngressQueueCap: 16, EgressQueueCap: 16, BatchMax: 8},
	}, &captureDown{})
	var delivered [][]byte
	s.mux.Bind(ids.ProtocolChannel(0), proto.UpFunc(func(src ids.ProcID, payload []byte) {
		delivered = append(delivered, append([]byte(nil), payload...))
	}))
	return s, env, &delivered
}

func TestRecvBatchRoundTrip(t *testing.T) {
	s, env, delivered := recvHarness(t)
	ch := ids.ProtocolChannel(0)

	var acc batchAcc
	acc.add(muxFrame(ch, "alpha"))
	acc.add(muxFrame(ch, "beta"))
	acc.add(muxFrame(ch, "gamma"))
	pkt := appendBatch(nil, &acc)

	s.Recv(1, pkt)
	env.run()
	if len(*delivered) != 3 {
		t.Fatalf("delivered %d inner frames, want 3", len(*delivered))
	}
	for i, want := range []string{"alpha", "beta", "gamma"} {
		if string((*delivered)[i]) != want {
			t.Fatalf("inner frame %d = %q, want %q", i, (*delivered)[i], want)
		}
	}
	if s.Stats().MalformedDropped != 0 {
		t.Fatalf("well-formed batch counted %d malformed", s.Stats().MalformedDropped)
	}
}

// TestRecvBatchAllOrNothing pins the defensive contract: a batch with a
// corrupt structure delivers none of its frames — even those before the
// corruption — and counts exactly one malformed drop.
func TestRecvBatchAllOrNothing(t *testing.T) {
	ch := ids.ProtocolChannel(0)
	var acc batchAcc
	acc.add(muxFrame(ch, "good"))
	acc.add(muxFrame(ch, "also-good"))
	good := appendBatch(nil, &acc)

	cases := []struct {
		name string
		pkt  []byte
	}{
		{"truncated tail", good[:len(good)-2]},
		{"count overrun", func() []byte {
			p := append([]byte(nil), good...)
			p[1] = 200 // claims 200 entries
			return p
		}()},
		{"zero count", []byte{batchMagic, 0}},
		{"empty body", []byte{batchMagic}},
		{"trailing garbage", append(append([]byte(nil), good...), 0xFF)},
	}
	for _, tc := range cases {
		s, env, delivered := recvHarness(t)
		s.Recv(1, tc.pkt)
		env.run()
		if len(*delivered) != 0 {
			t.Errorf("%s: delivered %d frames from a corrupt batch, want 0", tc.name, len(*delivered))
		}
		if s.Stats().MalformedDropped != 1 {
			t.Errorf("%s: counted %d malformed drops, want 1", tc.name, s.Stats().MalformedDropped)
		}
	}
}
