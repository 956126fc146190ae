package deltat

import (
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/frame"
	"soda/internal/sim"
)

// Targeted tests for the windowed engine's selective-repeat recovery
// (DESIGN.md §12):
// SACK bookkeeping, fast retransmit, the AIMD controller, the bounded
// out-of-order buffer, and the two livelock guards (the reply-lost NACK and
// the probe-state death clock). White-box tests drive the engine's entry
// points directly where orchestrating the exact wire interleaving through
// the bus would be fragile; everything they pin is deterministic state.

// recordEvents installs an event recorder on every endpoint of the rig.
func recordEvents(events *[]Event) func(*Config) {
	return func(cfg *Config) {
		cfg.Observer = func(ev Event) { *events = append(*events, ev) }
	}
}

// TestWindowDupAckNoReadyCharge is the spurious-retransmit-cliff regression:
// a duplicate cumulative acknowledgement (no progress) must leave the send
// state completely untouched — in particular the wsend.readyAt and
// wsend.lineFreeAt virtual-time serializers, which a pre-audit engine could
// re-charge on every duplicate, and the death clock's timer generation and
// backoff, whose reset would let a dup-ack storm starve the retransmit path.
func TestWindowDupAckNoReadyCharge(t *testing.T) {
	t.Run("selective", func(t *testing.T) {
		r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, nil)
		e := r.eps[1]
		var res *Result
		e.Send(2, make([]byte, 2600), nil, func(got Result) { res = &got })
		checked := false
		r.k.At(200*time.Microsecond, func() {
			p := e.peers[2]
			ws := p.ws
			if ws == nil || len(ws.frames) == 0 {
				t.Fatal("no unacknowledged frames at check time")
			}
			ready0, line0 := ws.readyAt, ws.lineFreeAt
			gen0, interval0, frames0 := p.timerGen, p.interval, len(ws.frames)
			dup := ws.frames[0].seq - 1 // cumulative point already passed
			// Stay under fastRetransmitDupAcks so the only acceptable
			// reaction is "nothing at all".
			for i := 0; i < fastRetransmitDupAcks-1; i++ {
				e.wProcess(&frame.TransportFrame{
					Kind: frame.TransportFragAck, Src: 2, Dst: 1,
					Seq: dup, ConnOpen: true,
				})
			}
			if ws.readyAt != ready0 || ws.lineFreeAt != line0 {
				t.Errorf("duplicate cum ack charged the serializers: readyAt %v->%v lineFreeAt %v->%v",
					ready0, ws.readyAt, line0, ws.lineFreeAt)
			}
			if p.timerGen != gen0 || p.interval != interval0 {
				t.Error("duplicate cum ack reset the recovery timer")
			}
			if len(ws.frames) != frames0 {
				t.Errorf("duplicate cum ack released frames: %d -> %d", frames0, len(ws.frames))
			}
			checked = true
		})
		if err := r.k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !checked {
			t.Fatal("check never ran")
		}
		if res == nil || res.Kind != ResultAcked {
			t.Fatalf("result = %+v, want acked", res)
		}
		if st := r.stats(); st.FragmentRetransmits != 0 {
			t.Fatalf("%d spurious retransmits after duplicate acks on a clean wire", st.FragmentRetransmits)
		}
	})
}

// TestWindowProbeLivelockDies is the livelock regression: a receiver that
// acknowledges every fragment but never completes the message (here: an
// unresolved hold; in the wild: a record that expired and lost its reply
// cache) must NOT keep the sender's death clock alive with bare acks. The
// sender's probe state freezes the deadline, so the connection dies within
// the Delta-t bound instead of probing forever — exactly like stop-and-wait,
// where the held duplicate earns silence and the clock runs out.
func TestWindowProbeLivelockDies(t *testing.T) {
	t.Run("selective", func(t *testing.T) {
		hooks := map[frame.MID]Hooks{
			2: {OnData: func(frame.MID, []byte) Decision {
				return Decision{Verdict: VerdictHold, HoldTimeout: -1} // never resolved
			}},
		}
		r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, hooks)
		var res *Result
		var at sim.Time
		r.eps[1].Send(2, make([]byte, 2600), nil, func(got Result) {
			res = &got
			at = r.k.Now()
		})
		if err := r.k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res == nil || res.Kind != ResultPeerDead {
			t.Fatalf("result = %+v, want peer-dead (not a probe livelock)", res)
		}
		if bound := 3 * sim.Time(DefaultConfig().DeadAfter()); at > bound {
			t.Fatalf("declared dead at %v, after the %v bound — probe acks kept the deadline alive", at, bound)
		}
		if !r.eps[1].Quiescent() {
			t.Fatal("sender not quiescent after peer death")
		}
	})
}

// ackDropSchedule drops message-completion ACK frames before the cutoff,
// leaving everything else untouched.
type ackDropSchedule struct {
	cutoff sim.Time
}

func (s *ackDropSchedule) Judge(now sim.Time, _, _ frame.MID, raw []byte) bus.FaultAction {
	if now >= s.cutoff {
		return bus.FaultAction{}
	}
	if f, err := frame.DecodeTransportShared(raw); err == nil && f.Kind == frame.TransportAck {
		return bus.FaultAction{Drop: true}
	}
	return bus.FaultAction{}
}

// TestWindowReplyLostNack: when the receiver has consumed a message but its
// cached reply is gone (record expiry wiped it), a probe duplicate is
// answered with an ErrReplyLost NACK so the sender fails the message
// promptly instead of probing until the death clock fires. The expiry's
// cache wipe is applied white-box: forcing a real mid-connection expiry
// requires a loss schedule tuned to one seed, which this pins structurally.
func TestWindowReplyLostNack(t *testing.T) {
	calls := 0
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			calls++
			return Decision{Verdict: VerdictAck, Reply: []byte("r")}
		}},
	}
	r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, hooks)
	r.b.SetFaultModel(&ackDropSchedule{cutoff: sim.Time(70 * time.Millisecond)})
	var res *Result
	var at sim.Time
	r.eps[1].Send(2, make([]byte, 2600), nil, func(got Result) {
		res = &got
		at = r.k.Now()
	})
	wiped := false
	r.k.At(60*time.Millisecond, func() {
		wr := r.eps[2].peers[1].wr
		if wr == nil || !wr.valid || len(wr.cache) == 0 {
			t.Fatal("receiver has no cached reply to wipe; message not consumed yet?")
		}
		// Simulate the lazy-expiry reset followed by re-adoption at a later
		// message: the cache is gone and the delivery head has moved past
		// the probed message.
		wr.cache = nil
		wr.cacheAge = nil
		wr.next += 3
		wiped = true
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !wiped {
		t.Fatal("wipe never ran")
	}
	if calls != 1 {
		t.Fatalf("OnData ran %d times, want exactly once", calls)
	}
	if res == nil || res.Kind != ResultError || res.Err != frame.ErrReplyLost {
		t.Fatalf("result = %+v, want ErrReplyLost error", res)
	}
	if bound := 2 * sim.Time(DefaultConfig().DeadAfter()); at > bound {
		t.Fatalf("failed at %v, after %v — the NACK should beat the death clock", at, bound)
	}
}

// dropNthFrag drops the n-th FRAG frame it sees (1-based), once.
type dropNthFrag struct {
	n    int
	seen int
}

func (s *dropNthFrag) Judge(_ sim.Time, _, _ frame.MID, raw []byte) bus.FaultAction {
	f, err := frame.DecodeTransportShared(raw)
	if err != nil || f.Kind != frame.TransportFrag {
		return bus.FaultAction{}
	}
	s.seen++
	return bus.FaultAction{Drop: s.seen == s.n}
}

// TestSelectiveFastRetransmit: one lost fragment inside a deep pipeline is
// recovered by fast retransmit (round 1, before any recovery-timer fire),
// repairs exactly the hole, and every retransmission is a hole re-send —
// no whole-pipeline flood.
func TestSelectiveFastRetransmit(t *testing.T) {
	var events []Event
	r := newWindowRigCfg(t, 1, 8, recordEvents(&events), []frame.MID{1, 2}, nil)
	r.b.SetFaultModel(&dropNthFrag{n: 2})
	acked := 0
	for i := 0; i < 4; i++ {
		r.eps[1].Send(2, make([]byte, 2600), nil, func(got Result) {
			if got.Kind == ResultAcked {
				acked++
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acked != 4 {
		t.Fatalf("acked %d/4 messages", acked)
	}
	st := r.stats()
	if st.SelectiveRetransmits == 0 {
		t.Fatal("SelectiveRetransmits = 0; the dropped fragment was never repaired selectively")
	}
	if st.FragmentRetransmits != st.SelectiveRetransmits {
		t.Fatalf("FragmentRetransmits %d != SelectiveRetransmits %d: something other than a hole was re-sent",
			st.FragmentRetransmits, st.SelectiveRetransmits)
	}
	if st.SackBlocksSent == 0 {
		t.Fatal("SackBlocksSent = 0; out-of-order arrivals must advertise SACK blocks")
	}
	fast := false
	for _, ev := range events {
		if ev.Kind == EvSelectiveRetransmit && ev.Attempt == 1 {
			fast = true
		}
	}
	if !fast {
		t.Fatal("no round-1 selective retransmit: recovery waited for the timer instead of duplicate acks")
	}
}

// TestSelectiveSackMarking: a SACK-bearing FRAGACK marks exactly the
// advertised frames, and a later marked frame is only released by the
// cumulative point (SACK never renege-releases).
func TestSelectiveSackMarking(t *testing.T) {
	r := newWindowRig(t, 1, 8, []frame.MID{1}, nil)
	e := r.eps[1]
	e.Send(2, make([]byte, 2600), nil, nil) // frags seq 0,1,2 — no peer, never acked
	ws := e.peers[2].ws
	if ws == nil || len(ws.frames) != 3 {
		t.Fatalf("want 3 unacknowledged frames, have %+v", ws)
	}
	// Receiver says: stuck just before the first frame, holding the third
	// (bit i advertises sequence cum+2+i).
	cum := ws.frames[0].seq - 1
	e.wProcess(&frame.TransportFrame{
		Kind: frame.TransportFragAck, Src: 2, Dst: 1,
		Seq: cum, SackBits: 1 << (ws.frames[2].seq - (cum + 2)), ConnOpen: true,
	})
	if ws.frames[0].sacked || ws.frames[1].sacked {
		t.Fatal("unadvertised frames marked sacked")
	}
	if !ws.frames[2].sacked {
		t.Fatal("advertised frame not marked sacked")
	}
	if len(ws.frames) != 3 {
		t.Fatal("SACK released frames; only the cumulative ack may release")
	}
}

// drained marks every outstanding fragment as having left the wire, so a
// directly-driven recovery round (at a frozen clock) sees actionable holes
// instead of an in-egress backlog.
func drained(ws *wsend) {
	for i := range ws.frames {
		ws.frames[i].wireAt = 0
	}
}

// TestSelectiveAntiRenegeAndAIMD drives the recovery timer path directly:
// round one halves cwnd and resends only the holes; round two distrusts the
// (possibly reneged) SACK picture, clears the marks, and resends everything
// unacknowledged, halving cwnd to its floor of 1.
func TestSelectiveAntiRenegeAndAIMD(t *testing.T) {
	var events []Event
	r := newWindowRigCfg(t, 1, 4, recordEvents(&events), []frame.MID{1}, nil)
	e := r.eps[1]
	e.Send(2, make([]byte, 2600), nil, nil) // frags seq 0,1,2 — no peer
	p := e.peers[2]
	ws := p.ws
	if ws == nil || len(ws.frames) != 3 || ws.cwnd != 4 {
		t.Fatalf("unexpected initial send state: %+v", ws)
	}
	ws.frames[1].sacked = true

	countSel := func() int {
		n := 0
		for _, ev := range events {
			if ev.Kind == EvSelectiveRetransmit {
				n++
			}
		}
		return n
	}

	drained(ws)
	e.wRetransmit(2, p)
	if got := countSel(); got != 2 {
		t.Fatalf("round 1 resent %d fragments, want 2 (holes only)", got)
	}
	if ws.cwnd != 2 {
		t.Fatalf("round 1 cwnd = %d, want 2 (multiplicative decrease)", ws.cwnd)
	}
	if !ws.frames[1].sacked {
		t.Fatal("round 1 cleared the SACK mark too early")
	}

	drained(ws)
	e.wRetransmit(2, p)
	if got := countSel(); got != 5 {
		t.Fatalf("round 2 resent %d total, want 5 (anti-renege resends all 3)", got)
	}
	if ws.frames[1].sacked {
		t.Fatal("round 2 must distrust and clear the SACK marks")
	}
	if ws.cwnd != 1 {
		t.Fatalf("round 2 cwnd = %d, want floor 1", ws.cwnd)
	}

	drained(ws)
	e.wRetransmit(2, p)
	if ws.cwnd != 1 {
		t.Fatalf("cwnd = %d, may never fall below 1", ws.cwnd)
	}
}

// TestSelectiveAIMDRegrow: after a lossy start, a long clean tail regrows
// cwnd additively; both adaptation directions appear and every reported
// cwnd stays within [1, ceiling] (the battery asserts the bound globally;
// this pins that both signals actually fire).
func TestSelectiveAIMDRegrow(t *testing.T) {
	var events []Event
	r := newWindowRigCfg(t, 3, 8, recordEvents(&events), []frame.MID{1, 2}, nil)
	r.b.SetFaultModel(&wireSchedule{k: r.k, cutoff: sim.Time(500 * time.Millisecond), loss: 0.35})
	acked, resolved := 0, 0
	// Deep bursts keep the pipeline full through the lossy phase (so a
	// recovery-timer fire — the decrease signal — actually happens), then a
	// clean tail drains and regrows the window. A wire this hostile may
	// legitimately kill a connection (a DeadAfter span of pure silence is a
	// correct death verdict), so the run asserts resolution and mostly-acked
	// rather than a perfect score.
	for i := 0; i < 24; i++ {
		i := i
		r.k.At(time.Duration(i/8)*100*time.Millisecond, func() {
			r.eps[1].Send(2, make([]byte, 2600), nil, func(got Result) {
				resolved++
				if got.Kind == ResultAcked {
					acked++
				}
			})
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resolved != 24 {
		t.Fatalf("resolved %d/24 sends", resolved)
	}
	if acked < 18 {
		t.Fatalf("acked only %d/24", acked)
	}
	dec, inc := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EvWindowDecrease:
			dec++
		case EvWindowIncrease:
			inc++
		}
	}
	if dec == 0 {
		t.Fatal("no multiplicative decrease under 35% loss")
	}
	if inc == 0 {
		t.Fatal("no additive increase during the clean tail")
	}
}

// TestSelectiveOOOBufferBounds: the out-of-order buffer accepts only the
// SACK-representable span, deduplicates, stays within maxOOOFrags, and when
// a non-compliant peer overflows it, evicts the fragment farthest past the
// cumulative point — deterministically.
func TestSelectiveOOOBufferBounds(t *testing.T) {
	r := newWindowRig(t, 1, 8, []frame.MID{1, 2}, nil)
	e := r.eps[2]
	p := e.wrecvFor(1)
	wr := p.wr
	wr.valid = true
	wr.cum = 100

	frag := func(seq uint8) *frame.TransportFrame {
		return &frame.TransportFrame{
			Kind: frame.TransportFrag, Src: 1, Dst: 2, Seq: seq,
			MsgSeq: 7, FragIndex: 1, Payload: []byte{seq},
		}
	}
	// In-span is [cum+2, cum+2+sackSpan); the boundary fragments on either
	// side must be refused.
	e.wBufferOOO(1, p, frag(wr.cum+1))
	e.wBufferOOO(1, p, frag(wr.cum+2+sackSpan))
	if len(wr.ooo) != 0 {
		t.Fatalf("out-of-span fragments banked: %d", len(wr.ooo))
	}
	// Fill every representable slot but one.
	for d := uint8(2); d < 2+sackSpan-1; d++ {
		e.wBufferOOO(1, p, frag(wr.cum+d))
	}
	if len(wr.ooo) != sackSpan-1 {
		t.Fatalf("banked %d fragments, want %d", len(wr.ooo), sackSpan-1)
	}
	// Duplicate banking is a no-op (first copy wins).
	before := len(wr.ooo[wr.cum+2].payload)
	e.wBufferOOO(1, p, &frame.TransportFrame{
		Kind: frame.TransportFrag, Src: 1, Dst: 2, Seq: wr.cum + 2,
		MsgSeq: 7, FragIndex: 1, Payload: []byte{1, 2, 3},
	})
	if len(wr.ooo) != sackSpan-1 || len(wr.ooo[wr.cum+2].payload) != before {
		t.Fatal("duplicate banking replaced or grew the buffer")
	}
	// A compliant sender can never overflow the buffer (the span holds
	// exactly maxOOOFrags sequences), so force the non-compliant shape:
	// a stale far entry left behind by a peer whose stream regressed.
	staleSeq := wr.cum + 200
	wr.ooo[staleSeq] = oooFrag{msgSeq: 3, idx: 1}
	last := wr.cum + 2 + sackSpan - 1
	e.wBufferOOO(1, p, frag(last))
	if _, ok := wr.ooo[staleSeq]; ok {
		t.Fatal("eviction kept the farthest fragment")
	}
	if _, ok := wr.ooo[last]; !ok {
		t.Fatal("eviction dropped the new in-span fragment instead of the farthest")
	}
	if len(wr.ooo) > maxOOOFrags {
		t.Fatalf("buffer grew to %d, cap %d", len(wr.ooo), maxOOOFrags)
	}

	// sackBits covers exactly the banked in-span fragments.
	bits := wr.sackBits()
	for d := uint8(2); d < 2+sackSpan; d++ {
		_, banked := wr.ooo[wr.cum+d]
		if got := bits&(1<<(d-2)) != 0; got != banked {
			t.Fatalf("sack bit for cum+%d = %v, banked = %v", d, got, banked)
		}
	}
}

// TestSackBlockCount pins the run-counting used by the SackBlocksSent stat.
func TestSackBlockCount(t *testing.T) {
	cases := []struct {
		bits uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{0b1011, 2},
		{0b101010, 3},
		{^uint64(0), 1},
		{1 << 63, 1},
		{(1 << 63) | 1, 2},
	}
	for _, c := range cases {
		if got := sackBlockCount(c.bits); got != c.want {
			t.Errorf("sackBlockCount(%b) = %d, want %d", c.bits, got, c.want)
		}
	}
}
