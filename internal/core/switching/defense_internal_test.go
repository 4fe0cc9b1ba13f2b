package switching

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// TestForgedEpochsDoNotGrowSealerCache pins that the auth key schedule
// memoizes only sealers that proved useful. The epoch an arriving frame
// claims is untrusted until its MAC verifies; forged frames claiming
// distinct future epochs (always inside the acceptance window) must be
// rejected as bad-MAC without leaving a cached sealer behind each —
// otherwise a forger grows the schedule, and the heap, without bound.
func TestForgedEpochsDoNotGrowSealerCache(t *testing.T) {
	const forgeries = 1000
	env := newFakeEnv(0, 3)
	cfg := Config{Defense: &DefenseConfig{QuarantineThreshold: 1 << 30, Auth: &AuthConfig{SessionKey: testSessionKey}}}
	s := &Switch{cfg: cfg, env: env, obs: obs.OrNop(nil)}
	e := newEnvelope(s, *cfg.Defense, nil)
	var delivered int
	if _, err := proto.Build(env, proto.UpFunc(func(ids.ProcID, []byte) { delivered++ }), &captureDown{}, e); err != nil {
		t.Fatal(err)
	}
	_ = e.Cast(muxFrame(ids.ProtocolChannel(0), "genuine")) // caches the send epoch's sealer
	before := len(e.sealers)

	wrongKey := []byte("not the session key")
	for i := uint64(1); i <= forgeries; i++ {
		e.Recv(1, wire.SealAuth(wire.DeriveEpochKey(wrongKey, i), i, muxFrame(ids.ProtocolChannel(0), "FORGED")))
	}
	if got := s.Stats().AuthFailed; got != forgeries {
		t.Errorf("AuthFailed = %d, want %d", got, forgeries)
	}
	if delivered != 0 {
		t.Errorf("%d forged frames delivered", delivered)
	}
	if got := len(e.sealers); got != before {
		t.Errorf("sealer cache grew from %d to %d entries under %d forgeries", before, got, forgeries)
	}

	// A genuine frame from ahead verifies, and only then is its sealer kept.
	e.Recv(1, wire.SealAuth(wire.DeriveEpochKey(testSessionKey, 7), 7, muxFrame(ids.ProtocolChannel(0), "ahead")))
	if delivered != 1 {
		t.Fatalf("genuine from-ahead frame not delivered")
	}
	if _, ok := e.sealers[7]; !ok || len(e.sealers) != before+1 {
		t.Errorf("verified epoch 7 sealer not memoized: %d entries", len(e.sealers))
	}
}
