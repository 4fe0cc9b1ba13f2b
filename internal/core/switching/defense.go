package switching

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// DefenseConfig enables the adversarial-input hardening of the
// switching stack. The §2 protocol (like the Horus stacks it models)
// assumes a benign network; with Defense set, every transport packet is
// wrapped in wire's integrity envelope on egress and verified on
// ingress, so bit rot, truncation, and cross-version garbage are
// detected at the trust boundary — below every protocol header — and
// dropped before they can reach protocol state. A rejected frame looks
// like a loss to the stack above, which the FIFO layer's retransmission
// already repairs, so corruption degrades into latency rather than
// wedges or garbled deliveries.
//
// Nil Defense preserves the legacy wire format byte-for-byte: no
// envelope, no per-packet overhead, identical experiment artifacts.
type DefenseConfig struct {
	// QuarantineThreshold is how many malformed messages apparently
	// from one peer this member tolerates before raising a suspicion
	// against it instead of wedging on its garbage. Required (> 0).
	// With Auth enabled, authentication failures advance the same
	// per-peer count.
	QuarantineThreshold int
	// OnQuarantine, if set, is invoked (once per peer) when the
	// threshold is crossed.
	OnQuarantine func(ids.ProcID)
	// Auth, when non-nil, upgrades the integrity envelope to the
	// authenticated envelope: frames are MACed under a per-epoch key
	// derived from the group session key, so forgery — not just
	// corruption — is rejected at the trust boundary. See AuthConfig.
	Auth *AuthConfig
}

// AuthConfig configures the authenticated-session mode of the
// defensive ingress. Every member of a group must share the same
// SessionKey (distribution is out of scope — in a deployment it would
// come from a group key agreement à la mpENC; here the harness hands it
// out). The per-frame MAC key is wire.DeriveEpochKey(SessionKey,
// epoch), rolled atomically with the switch protocol's send-epoch
// advance, which makes the epoch counter part of what a frame
// authenticates: a frame captured in epoch N fails verification once
// the group's grace window for N has closed, so cross-epoch replay is
// rejected even though each individual frame is genuine.
type AuthConfig struct {
	// SessionKey is the group session secret. Required (non-empty).
	SessionKey []byte
	// Grace bounds how long after this member rolls its send epoch it
	// keeps accepting frames sealed under the previous epoch's key —
	// covering legitimately in-flight old-epoch frames during a switch
	// round. Beyond the window, previous-epoch frames are rejected as
	// replays. Defaults to 10× the token interval. Same-epoch and
	// newer-epoch frames are always accepted when their MAC verifies
	// (an attacker without the session key can forge neither).
	Grace time.Duration
}

// Validate checks the defense configuration.
func (c DefenseConfig) Validate() error {
	if c.QuarantineThreshold <= 0 {
		return fmt.Errorf("switching: quarantine threshold %d must be positive", c.QuarantineThreshold)
	}
	if c.Auth != nil {
		if len(c.Auth.SessionKey) == 0 {
			return fmt.Errorf("switching: auth mode requires a non-empty session key")
		}
		if c.Auth.Grace < 0 {
			return fmt.Errorf("switching: negative auth grace window %v", c.Auth.Grace)
		}
	}
	return nil
}

// countMalformed records a defensively-dropped message apparently from
// src and, with Defense enabled, advances src toward quarantine. It is
// called from every ingress rejection site — envelope failures, token
// decode/range failures, epoch-header failures — so Stats and the
// malformed_drop trace stay mutually consistent.
func (s *Switch) countMalformed(src ids.ProcID, reason int64) {
	s.emit(obs.MalformedDrop(s.env.Now(), s.env.Self(), src, reason))
	if s.cfg.Defense == nil {
		return
	}
	if s.malformedBy == nil {
		s.malformedBy = make(map[ids.ProcID]uint64)
	}
	s.malformedBy[src]++
	s.noteDefenseDrop(src)
}

// countAuthFailed records an arrival that failed authentication —
// structurally broken envelope, bad MAC, or retired epoch — dropped
// before any state mutation. Auth failures advance the same per-peer
// quarantine progress as malformed drops: a peer spraying forgeries is
// routed around exactly like one spraying garbage.
func (s *Switch) countAuthFailed(src ids.ProcID, epoch uint64, reason int64) {
	s.emit(obs.AuthFail(s.env.Now(), s.env.Self(), src, epoch, reason))
	if s.authFailedBy == nil {
		s.authFailedBy = make(map[ids.ProcID]uint64)
	}
	s.authFailedBy[src]++
	s.noteDefenseDrop(src)
}

// noteDefenseDrop advances src's combined defensive-drop count toward
// quarantine. The combined count (malformed + auth-failed) crosses the
// threshold exactly once, so the suspicion fires exactly once per peer.
func (s *Switch) noteDefenseDrop(src ids.ProcID) {
	d := s.cfg.Defense
	if d == nil {
		return
	}
	if s.malformedBy[src]+s.authFailedBy[src] != uint64(d.QuarantineThreshold) {
		return
	}
	// Crossing the threshold raises a suspicion instead of wedging:
	// the ring routes around the peer exactly as it would around a
	// crash, and a later healthy heartbeat restores it.
	s.emit(obs.Quarantine(s.env.Now(), s.env.Self(), src, d.QuarantineThreshold))
	if s.rec != nil {
		s.rec.det.ForceSuspect(src)
	}
	if d.OnQuarantine != nil {
		d.OnQuarantine(src)
	}
}

// MalformedFrom returns how many malformed messages apparently from p
// this member has dropped (quarantine progress).
func (s *Switch) MalformedFrom(p ids.ProcID) uint64 { return s.malformedBy[p] }

// AuthFailedFrom returns how many arrivals apparently from p failed
// authentication at this member (quarantine progress).
func (s *Switch) AuthFailedFrom(p ids.ProcID) uint64 { return s.authFailedBy[p] }

// envelope is the lowest transport stage: it seals every outgoing
// packet and verifies and strips every incoming one, so one envelope
// covers the mux header and everything above it, and nothing unverified
// is queued, batched or demultiplexed. Integrity mode (auth nil) uses
// wire's CRC envelope; auth mode MACs each frame under the current
// epoch's key. Because sealing happens here at write time, FIFO
// retransmissions — which re-traverse the stage — are re-sealed under
// the key current at retransmission, keeping repair traffic inside the
// receiver's acceptance window.
type envelope struct {
	s    *Switch
	down proto.Down
	up   proto.Up
	auth *AuthConfig

	// batch is the overload stage's batcher, flushed before the sealing
	// epoch moves (the epoch-flush rule); nil without batching.
	batch *batcher

	// The auth key schedule. sealers memoizes the per-epoch sealer —
	// derived key plus cached keyed HMAC — so steady-state sealing and
	// opening allocate nothing. epoch is the send epoch (SetEpoch),
	// rolledAt when it last advanced: the start of the grace window
	// during which the previous epoch's key is still accepted.
	sealers  map[uint64]*wire.AuthSealer
	epoch    uint64
	rolledAt time.Duration
	grace    time.Duration
	// maxAuthEpoch is the newest epoch this member has verified a MAC
	// under. A member that missed a switch round (partitioned, say)
	// seals its egress under this instead of its own lagging send epoch:
	// the verified MAC is unforgeable evidence the group rolled, and
	// sealing under the retired key would get every frame it sends —
	// heartbeats included — rejected by the advanced majority, leaving
	// it permanently suspected and unable to rejoin.
	maxAuthEpoch uint64
}

func newEnvelope(s *Switch, d DefenseConfig, batch *batcher) *envelope {
	e := &envelope{s: s, auth: d.Auth, batch: batch}
	if d.Auth != nil {
		e.sealers = make(map[uint64]*wire.AuthSealer)
		e.grace = d.Auth.Grace
		if e.grace == 0 {
			e.grace = 10 * s.cfg.TokenInterval
		}
	}
	return e
}

func (e *envelope) Init(_ proto.Env, down proto.Down, up proto.Up) error {
	e.down, e.up = down, up
	return nil
}

func (e *envelope) Stop() {}

func (e *envelope) Cast(payload []byte) error {
	bp := wire.GetBuf()
	pkt := e.seal(*bp, payload)
	err := e.down.Cast(pkt)
	*bp = pkt[:0]
	wire.PutBuf(bp)
	return err
}

func (e *envelope) Send(dst ids.ProcID, payload []byte) error {
	bp := wire.GetBuf()
	pkt := e.seal(*bp, payload)
	err := e.down.Send(dst, pkt)
	*bp = pkt[:0]
	wire.PutBuf(bp)
	return err
}

// seal appends payload in the envelope: in auth mode under the send
// epoch's key — or the newest authenticated epoch this member has
// witnessed, when that is ahead (see maxAuthEpoch).
func (e *envelope) seal(dst, payload []byte) []byte {
	if e.auth == nil {
		return wire.SealTo(dst, payload)
	}
	epoch := max(e.epoch, e.maxAuthEpoch)
	a, cached := e.sealer(epoch)
	if !cached {
		e.sealers[epoch] = a
	}
	return a.SealTo(dst, payload)
}

// sealer returns the memoized sealer for an epoch, or derives a fresh
// one without caching it. The caller memoizes a fresh sealer only once
// it sealed a frame or verified a MAC: the epoch an arriving frame
// claims is untrusted until its MAC verifies, so caching before the
// check would let forged frames with distinct future epochs grow the
// schedule without bound.
func (e *envelope) sealer(epoch uint64) (a *wire.AuthSealer, cached bool) {
	if a, ok := e.sealers[epoch]; ok {
		return a, true
	}
	return wire.NewAuthSealer(wire.DeriveEpochKey(e.auth.SessionKey, epoch), epoch), false
}

// SetEpoch is the key roll, called with every send-epoch advance after
// the stages above flushed: it opens the grace window for the previous
// epoch and prunes retired sealers from the schedule.
func (e *envelope) SetEpoch(epoch uint64) {
	e.epoch = epoch
	if e.auth == nil {
		return
	}
	e.rolledAt = e.s.env.Now()
	for ep := range e.sealers {
		if ep+1 < epoch {
			delete(e.sealers, ep)
		}
	}
}

// Recv verifies and strips the envelope and passes the payload up; a
// packet that fails is counted and dropped before any stage above sees
// it.
func (e *envelope) Recv(src ids.ProcID, pkt []byte) {
	if e.auth != nil {
		if payload, ok := e.openAuth(src, pkt); ok {
			e.up.Deliver(src, payload)
		}
		return
	}
	payload, err := wire.Open(pkt)
	if err != nil {
		reason := obs.MalformedFrame
		if err == wire.ErrChecksum {
			reason = obs.MalformedChecksum
		}
		e.s.countMalformed(src, reason)
		return
	}
	e.up.Deliver(src, payload)
}

func (e *envelope) openAuth(src ids.ProcID, pkt []byte) ([]byte, bool) {
	epoch, err := wire.AuthEpoch(pkt)
	if err != nil {
		e.s.countAuthFailed(src, 0, obs.AuthBadFrame)
		return nil, false
	}
	// Reject retired epochs before verifying: the stale check needs no
	// crypto, and skipping verification means a replayed frame's key is
	// never even derived.
	if !e.acceptable(epoch) {
		e.s.countAuthFailed(src, epoch, obs.AuthStaleEpoch)
		return nil, false
	}
	a, cached := e.sealer(epoch)
	payload, err := a.Open(pkt)
	if err != nil {
		e.s.countAuthFailed(src, epoch, obs.AuthBadMAC)
		return nil, false
	}
	if !cached {
		e.sealers[epoch] = a
	}
	if epoch > e.maxAuthEpoch {
		// The group provably rolled past this member's send epoch: flush
		// any batch accumulated under the old sealing epoch before egress
		// starts sealing under the new one.
		e.batch.flush()
		e.maxAuthEpoch = epoch
	}
	return payload, true
}

// acceptable implements the receive-side acceptance window. Frames at
// or ahead of the send epoch are always acceptable (an attacker without
// the session key cannot forge any epoch, and from-ahead frames are how
// lagging members catch up); the previous epoch is acceptable only
// while the grace window that opened at the key roll is still running.
// Everything older is a cross-epoch replay.
func (e *envelope) acceptable(epoch uint64) bool {
	if epoch >= e.epoch {
		return true
	}
	if epoch+1 == e.epoch {
		return e.s.env.Now()-e.rolledAt <= e.grace
	}
	return false
}
