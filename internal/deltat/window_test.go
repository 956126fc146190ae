package deltat

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/frame"
	"soda/internal/sim"
)

// Targeted conformance tests for the windowed engine (DESIGN.md §11): each
// classic Delta-t behavior — busy retry, urgent preemption, holds, deferred
// and error verdicts, peer death, duplicate suppression, crash/reboot —
// re-proven with Window > 1, where messages travel as sequenced FRAG runs.

// TestWindowFragmentationRoundTrip: one bulk message becomes a FRAG run,
// arrives intact, and the reply rides the message-level ACK back.
func TestWindowFragmentationRoundTrip(t *testing.T) {
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(_ frame.MID, p []byte) Decision {
			got = append([]byte(nil), p...)
			return Decision{Verdict: VerdictAck, Reply: []byte("bulk-ok")}
		}},
	}
	r := newWindowRig(t, 1, 8, []frame.MID{1, 2}, hooks)
	var res *Result
	r.eps[1].Send(2, payload, nil, func(re Result) { res = &re })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want %d intact", len(got), len(payload))
	}
	if res == nil || res.Kind != ResultAcked || string(res.Reply) != "bulk-ok" {
		t.Fatalf("result = %+v, want acked with reply", res)
	}
	st := r.stats()
	if want := uint64((len(payload) + DefaultFragSize - 1) / DefaultFragSize); st.ByKind[frame.TransportFrag] != want {
		t.Fatalf("FRAG frames = %d, want %d (%v)", st.ByKind[frame.TransportFrag], want, st.ByKind)
	}
	if st.FragmentRetransmits != 0 {
		t.Fatalf("%d spurious retransmits on a clean wire", st.FragmentRetransmits)
	}
}

// TestWindowUrgentOvertakesBusy: a message stuck in BUSY retries yields to
// an urgent one — the windowed receiver must deliver the urgent message out
// of its buffered sequence, then resume the parked one.
func TestWindowUrgentOvertakesBusy(t *testing.T) {
	var r *rig
	var got []string
	busyUntil := 60 * time.Millisecond
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(_ frame.MID, p []byte) Decision {
			if string(p[:7]) == "blocked" && r.k.Now() < sim.Time(busyUntil) {
				return Decision{Verdict: VerdictBusy}
			}
			got = append(got, string(p[:5]))
			return Decision{Verdict: VerdictAck}
		}},
	}
	r = newWindowRig(t, 1, 4, []frame.MID{1, 2}, hooks)
	blocked := make([]byte, 2000)
	copy(blocked, "blocked")
	r.eps[1].Send(2, blocked, nil, nil)
	r.k.At(10*time.Millisecond, func() {
		urgent := make([]byte, 1500)
		copy(urgent, "reply")
		r.eps[1].SendUrgent(2, urgent, nil, nil)
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != "reply" || got[1] != "block" {
		t.Fatalf("order = %v, want [reply block...]", got)
	}
	for mid, ep := range r.eps {
		if !ep.Quiescent() {
			t.Fatalf("endpoint %d not quiescent", mid)
		}
	}
}

// TestWindowHoldResolvedWithReply: VerdictHold on a fragmented message,
// resolved later with a piggybacked reply.
func TestWindowHoldResolvedWithReply(t *testing.T) {
	r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictHold, HoldTimeout: 50 * time.Millisecond}
		}},
	})
	// The 3-fragment message lands at ≈30 ms; resolve inside the hold.
	r.k.At(40*time.Millisecond, func() {
		if !r.eps[2].ResolveHold(1, Decision{Verdict: VerdictAck, Reply: []byte("late")}) {
			t.Error("ResolveHold found no hold")
		}
	})
	var res *Result
	r.eps[1].Send(2, make([]byte, 3000), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked || string(res.Reply) != "late" {
		t.Fatalf("result = %+v, want acked/late", res)
	}
}

// TestWindowSendResolvingHold: the ACCEPT+DATA pattern under a window —
// the held query is acked and the answer travels as an urgent message.
func TestWindowSendResolvingHold(t *testing.T) {
	var fromTwo []byte
	hooks := map[frame.MID]Hooks{
		1: {OnData: func(_ frame.MID, p []byte) Decision {
			fromTwo = append([]byte(nil), p...)
			return Decision{Verdict: VerdictAck}
		}},
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictHold, HoldTimeout: 60 * time.Millisecond}
		}},
	}
	r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, hooks)
	reply := make([]byte, 2500)
	copy(reply, "reply-data")
	r.k.At(25*time.Millisecond, func() {
		if !r.eps[2].SendResolvingHold(1, reply, nil, nil) {
			t.Error("SendResolvingHold found no hold")
		}
	})
	var res *Result
	r.eps[1].Send(2, make([]byte, 1800), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked {
		t.Fatalf("query result = %+v, want acked", res)
	}
	if !bytes.Equal(fromTwo, reply) {
		t.Fatalf("answer corrupted: %d bytes", len(fromTwo))
	}
}

// TestWindowAckDeferredFallsBack: with no reverse traffic the deferred ack
// degenerates to a plain message ACK after the A window.
func TestWindowAckDeferredFallsBack(t *testing.T) {
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictAckDeferred}
		}},
	}
	r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, hooks)
	var res *Result
	var ackedAt sim.Time
	r.eps[1].Send(2, make([]byte, 2000), nil, func(got Result) {
		res = &got
		ackedAt = r.k.Now()
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked {
		t.Fatalf("result = %+v", res)
	}
	if a := sim.Time(DefaultConfig().A); ackedAt < a {
		t.Fatalf("acked at %v, before the %v deferral window", ackedAt, a)
	}
}

// TestWindowErrorNack: an error verdict on a fragmented message reaches
// the sender and consumes the message.
func TestWindowErrorNack(t *testing.T) {
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictError, Err: frame.ErrUnadvertised}
		}},
	}
	r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, hooks)
	var res1, res2 *Result
	r.eps[1].Send(2, make([]byte, 2200), nil, func(got Result) { res1 = &got })
	r.eps[1].Send(2, make([]byte, 100), nil, func(got Result) { res2 = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res1 == nil || res1.Kind != ResultError || res1.Err != frame.ErrUnadvertised {
		t.Fatalf("first result = %+v, want unadvertised error", res1)
	}
	if res2 == nil || res2.Kind != ResultError {
		t.Fatalf("second result = %+v; the error must not wedge the window", res2)
	}
}

// TestWindowPeerDead: fragments into the void still respect the MPL+Δt
// death bound, and the whole queue fails together.
func TestWindowPeerDead(t *testing.T) {
	r := newWindowRig(t, 1, 4, []frame.MID{1}, nil) // MID 2 does not exist
	var kinds []ResultKind
	var at sim.Time
	for i := 0; i < 3; i++ {
		r.eps[1].Send(2, make([]byte, 2000), nil, func(got Result) {
			kinds = append(kinds, got.Kind)
			at = r.k.Now()
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(kinds) != 3 {
		t.Fatalf("got %d results, want 3", len(kinds))
	}
	for _, k := range kinds {
		if k != ResultPeerDead {
			t.Fatalf("results = %v, want all peer-dead", kinds)
		}
	}
	dead := sim.Time(DefaultConfig().DeadAfter())
	if at < dead || at > 3*dead {
		t.Fatalf("declared dead at %v, want within [%v, %v]", at, dead, 3*dead)
	}
	if !r.eps[1].Quiescent() {
		t.Fatal("endpoint not quiescent after peer death")
	}
}

// reconnectWire loses every frame node 2 sends until healed, and after that,
// if loseFirst, the first data-bearing frame node 1 sends.
type reconnectWire struct {
	healed, loseFirst bool
}

func (w *reconnectWire) Judge(_ sim.Time, src, _ frame.MID, raw []byte) bus.FaultAction {
	if !w.healed {
		return bus.FaultAction{Drop: src == 2}
	}
	if f, err := frame.DecodeTransportShared(raw); err == nil && src == 1 && w.loseFirst &&
		(f.Kind == frame.TransportData || f.Kind == frame.TransportFrag) {
		w.loseFirst = false
		return bus.FaultAction{Drop: true}
	}
	return bus.FaultAction{}
}

// TestReconnectAfterPeerDead pins "acked ⇒ delivered" across a peer-dead
// verdict, under both framings. Node 2 delivers A, but every frame it sends
// is lost, so node 1 declares it dead. Node 1 then sends B on the healed
// wire, and straggler answers to A from the dead connection — an ACK with
// A's reply, and an error NACK — arrive inside the reconnect quiet period.
// B must be delivered exactly once and acked with its own reply: the
// restarted sequence space may not alias A's receive record at node 2, and
// no straggler may complete B. Under stop-and-wait B's first copy is lost
// too, so B also needs a death clock that started at the end of the quiet
// period and that no straggler pulled back. The windowed framing does not
// survive that loss yet: its recovery timer adds the quiet period on top of
// a drain wait that already ends after it, so the first fire lands past the
// death deadline and the reconnect dies without one retransmission.
func TestReconnectAfterPeerDead(t *testing.T) {
	for _, window := range []int{1, 4} {
		window := window
		t.Run(fmt.Sprintf("w%d", window), func(t *testing.T) {
			var delivered []string
			hooks := map[frame.MID]Hooks{
				2: {OnData: func(_ frame.MID, p []byte) Decision {
					delivered = append(delivered, string(p))
					return Decision{Verdict: VerdictAck, Reply: []byte("reply-" + string(p))}
				}},
			}
			r := newWindowRig(t, 1, window, []frame.MID{1, 2}, hooks)
			w := &reconnectWire{loseFirst: window == 1}
			r.b.SetFaultModel(w)
			e1 := r.eps[1]
			var resA, resB *Result
			e1.Send(2, []byte("A"), nil, func(res Result) {
				resA = &res
				w.healed = true
				e1.Send(2, []byte("B"), nil, func(res Result) { resB = &res })
				// A's only frame had sequence 0 under either framing, as
				// does B's: each straggler would fit B exactly.
				for i, f := range []*frame.TransportFrame{
					{Kind: frame.TransportAck, Payload: []byte("reply-A")},
					{Kind: frame.TransportNack, Err: frame.ErrUnadvertised},
				} {
					f.Src, f.Dst, f.ConnOpen, f.AckPresent = 2, 1, true, window > 1
					raw := frame.EncodeTransport(f)
					r.k.After(time.Duration(i+1)*time.Millisecond, func() { e1.receive(raw) })
				}
			})
			if err := r.k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if resA == nil || resA.Kind != ResultPeerDead {
				t.Fatalf("A: result %+v, want peer-dead", resA)
			}
			if resB == nil || resB.Kind != ResultAcked || string(resB.Reply) != "reply-B" {
				t.Fatalf("B: result %+v, want acked with reply-B", resB)
			}
			if len(delivered) != 2 || delivered[0] != "A" || delivered[1] != "B" {
				t.Fatalf("delivered %q, want [A B]", delivered)
			}
			if w.loseFirst {
				t.Fatal("B's first copy was never lost")
			}
		})
	}
}

// TestWindowDuplicateReplay: under heavy loss a consumed message's
// retransmitted fragments replay the cached reply instead of re-delivering.
// Loss schedules that silence the wire for a full DeadAfter span correctly
// report the peer dead, so the test sweeps seeds and demands (a) delivery
// is exactly-once on every run, dead or not, and (b) several runs where
// the message survived loss-forced fragment retransmissions.
func TestWindowDuplicateReplay(t *testing.T) {
	ackedWithRetransmits := 0
	for seed := int64(1); seed <= 20; seed++ {
		calls := 0
		hooks := map[frame.MID]Hooks{
			2: {OnData: func(frame.MID, []byte) Decision {
				calls++
				return Decision{Verdict: VerdictAck, Reply: []byte("r")}
			}},
		}
		r := newWindowRig(t, seed, 4, []frame.MID{1, 2}, hooks)
		r.b.SetFaultModel(&wireSchedule{k: r.k, cutoff: sim.Time(120 * time.Millisecond), loss: 0.35})
		var res *Result
		r.eps[1].Send(2, make([]byte, 2600), nil, func(got Result) { res = &got })
		if err := r.k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if calls > 1 {
			t.Fatalf("seed %d: OnData called %d times, want at most 1", seed, calls)
		}
		if res == nil {
			t.Fatalf("seed %d: no result", seed)
		}
		if res.Kind == ResultAcked {
			if string(res.Reply) != "r" || calls != 1 {
				t.Fatalf("seed %d: acked but reply=%q calls=%d", seed, res.Reply, calls)
			}
			if r.stats().FragmentRetransmits > 0 {
				ackedWithRetransmits++
			}
		}
	}
	if ackedWithRetransmits < 3 {
		t.Fatalf("only %d/20 seeds survived loss with retransmissions; loss model changed?", ackedWithRetransmits)
	}
}

// TestWindowCrashRebootQuietPeriod: a crash clears all window state; after
// the quiet period the restarted sequence space is accepted.
func TestWindowCrashRebootQuietPeriod(t *testing.T) {
	delivered := 0
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			delivered++
			return Decision{Verdict: VerdictAck}
		}},
	}
	r := newWindowRig(t, 1, 4, []frame.MID{1, 2}, hooks)
	e1 := r.eps[1]
	var rebootReadyAt sim.Time
	crashAt := 60 * time.Millisecond
	r.k.At(crashAt, func() {
		e1.Crash()
		e1.Reboot(func() {
			rebootReadyAt = r.k.Now()
			e1.Send(2, make([]byte, 2000), nil, nil)
		})
	})
	e1.Send(2, make([]byte, 2000), nil, nil)
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d messages, want 2", delivered)
	}
	wantQuiet := sim.Time(crashAt + DefaultConfig().QuietPeriod())
	if rebootReadyAt < wantQuiet {
		t.Fatalf("rejoined at %v, before quiet period end %v", rebootReadyAt, wantQuiet)
	}
}

// TestWindowStatsCounters: the three windowed wire counters accumulate —
// fills when the window binds, cumulative acks on fragment runs, and
// fragment retransmits under loss.
func TestWindowStatsCounters(t *testing.T) {
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision { return Decision{Verdict: VerdictAck} }},
	}
	r := newWindowRig(t, 5, 2, []frame.MID{1, 2}, hooks)
	r.b.SetFaultModel(&wireSchedule{k: r.k, cutoff: sim.Time(200 * time.Millisecond), loss: 0.20})
	for i := 0; i < 8; i++ {
		r.eps[1].Send(2, make([]byte, 1500), nil, nil)
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := r.stats()
	if st.WindowFills == 0 {
		t.Error("WindowFills = 0; eight queued bulk messages must fill a 2-deep window")
	}
	if st.CumulativeAcks == 0 {
		t.Error("CumulativeAcks = 0 on a fragmented stream")
	}
	if st.FragmentRetransmits == 0 {
		t.Error("FragmentRetransmits = 0 under 20% loss")
	}
}
