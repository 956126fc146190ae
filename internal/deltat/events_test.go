package deltat

import (
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/frame"
	"soda/internal/sim"
)

// eventRig is a rig with the transport observer armed on every endpoint.
type eventRig struct {
	*rig
	events []Event
}

func newEventRig(t *testing.T, seed int64, lossProb float64, mids []frame.MID, hooks map[frame.MID]Hooks) *eventRig {
	t.Helper()
	er := &eventRig{}
	k := sim.New(seed)
	k.SetEventLimit(2_000_000)
	busCfg := bus.DefaultConfig()
	busCfg.LossProb = lossProb
	b := bus.New(k, busCfg)
	er.rig = &rig{k: k, b: b, eps: make(map[frame.MID]*Endpoint)}
	cfg := DefaultConfig()
	cfg.Observer = func(ev Event) { er.events = append(er.events, ev) }
	for _, mid := range mids {
		h, ok := hooks[mid]
		if !ok {
			h = Hooks{OnData: func(frame.MID, []byte) Decision { return Decision{Verdict: VerdictAck} }}
		}
		ep, err := New(k, b.Wire(), mid, cfg, h)
		if err != nil {
			t.Fatalf("New(%d): %v", mid, err)
		}
		er.eps[mid] = ep
	}
	return er
}

func (er *eventRig) count(kind EventKind) int {
	n := 0
	for _, ev := range er.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestObserverEventsOnCleanExchange: a loss-free send produces the minimal
// stream — connection opens on both sides, one ACK each way, no recovery.
func TestObserverEventsOnCleanExchange(t *testing.T) {
	r := newEventRig(t, 1, 0, []frame.MID{1, 2}, nil)
	var res *Result
	r.eps[1].Send(2, []byte("ping"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked {
		t.Fatalf("result = %+v", res)
	}
	if n := r.count(EvConnOpen); n != 2 {
		t.Errorf("EvConnOpen = %d, want 2 (one record per side)", n)
	}
	if n := r.count(EvAckTx); n != 1 {
		t.Errorf("EvAckTx = %d, want 1", n)
	}
	if n := r.count(EvAckRx); n != 1 {
		t.Errorf("EvAckRx = %d, want 1", n)
	}
	for _, kind := range []EventKind{EvRetransmit, EvPeerDead, EvBusyRetry, EvConnExpire, EvConnClose} {
		if n := r.count(kind); n != 0 {
			t.Errorf("%v = %d on a clean run, want 0", kind, n)
		}
	}
	// The AckRx event carries the attempt count of the acknowledged send.
	for _, ev := range r.events {
		if ev.Kind == EvAckRx && ev.Attempt != 1 {
			t.Errorf("EvAckRx attempt = %d, want 1", ev.Attempt)
		}
	}
}

// TestObserverAndStatsAgreeUnderLoss: on a lossy bus the observer stream's
// retransmit count must equal the bus Stats counter, and both must be
// non-zero.
func TestObserverAndStatsAgreeUnderLoss(t *testing.T) {
	r := newEventRig(t, 3, 0.3, []frame.MID{1, 2}, nil)
	delivered := 0
	for i := 0; i < 20; i++ {
		r.eps[1].Send(2, []byte{byte(i)}, nil, func(got Result) {
			if got.Kind == ResultAcked {
				delivered++
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 20 {
		t.Fatalf("delivered %d/20", delivered)
	}
	st := r.stats()
	if st.Retransmissions == 0 {
		t.Fatal("no retransmissions at 30% loss; the test exercised nothing")
	}
	if n := uint64(r.count(EvRetransmit)); n != st.Retransmissions {
		t.Errorf("observer saw %d retransmits, bus counted %d", n, st.Retransmissions)
	}
	// Retransmit events carry increasing attempt numbers starting at 2.
	for _, ev := range r.events {
		if ev.Kind == EvRetransmit && ev.Attempt < 2 {
			t.Errorf("EvRetransmit attempt = %d, want ≥2", ev.Attempt)
		}
	}
}

// TestPeerDeadEventAndCounter: a send toward silence times out after
// MPL+Δt, emitting EvPeerDead and counting a peer-dead timeout in Stats.
func TestPeerDeadEventAndCounter(t *testing.T) {
	r := newEventRig(t, 1, 0, []frame.MID{1, 2}, nil)
	r.eps[2].Crash() // the peer hears nothing and answers nothing
	var res *Result
	r.eps[1].Send(2, []byte("into the void"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultPeerDead {
		t.Fatalf("result = %+v, want peer dead", res)
	}
	if n := r.count(EvPeerDead); n != 1 {
		t.Errorf("EvPeerDead = %d, want 1", n)
	}
	if n := r.count(EvConnClose); n != 1 {
		t.Errorf("EvConnClose = %d, want 1 (record discarded with the peer)", n)
	}
	if st := r.stats(); st.PeerDeadTimeouts != 1 {
		t.Errorf("Stats.PeerDeadTimeouts = %d, want 1", st.PeerDeadTimeouts)
	}
}

// TestPiggybackAckEventAndCounter: resolving a hold by sending a reverse
// DATA frame rides the acknowledgement on it — observable as
// EvPiggybackAck and counted in Stats (invisible in ByKind).
func TestPiggybackAckEventAndCounter(t *testing.T) {
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictHold, HoldTimeout: -1}
		}},
	}
	r := newEventRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	r.eps[1].Send(2, []byte("question"), nil, nil)
	// Resolve once the question has arrived and is held (well past the
	// processing charges and wire time, well before any retransmission).
	r.k.After(8*time.Millisecond, func() {
		if !r.eps[2].HasHold(1) {
			t.Error("question not held yet; adjust the delay")
		}
		r.eps[2].SendResolvingHold(1, []byte("answer"), nil, nil)
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := r.count(EvPiggybackAck); n < 1 {
		t.Errorf("EvPiggybackAck = %d, want ≥1", n)
	}
	st := r.stats()
	if st.PiggybackedAcks != uint64(r.count(EvPiggybackAck)) {
		t.Errorf("Stats.PiggybackedAcks = %d, observer saw %d", st.PiggybackedAcks, r.count(EvPiggybackAck))
	}
}

// TestNoObserverBuildsNoEvents: the zero-overhead contract — with no
// observer the endpoint behaves identically (frame for frame) and the
// always-on counters still work.
func TestNoObserverBuildsNoEvents(t *testing.T) {
	run := func(observe bool) (bus.Stats, int) {
		events := 0
		k := sim.New(7)
		b := bus.New(k, func() bus.Config { c := bus.DefaultConfig(); c.LossProb = 0.3; return c }())
		cfg := DefaultConfig()
		if observe {
			cfg.Observer = func(Event) { events++ }
		}
		mk := func(mid frame.MID) *Endpoint {
			ep, err := New(k, b.Wire(), mid, cfg, Hooks{OnData: func(frame.MID, []byte) Decision {
				return Decision{Verdict: VerdictAck}
			}})
			if err != nil {
				t.Fatalf("New(%d): %v", mid, err)
			}
			return ep
		}
		e1, e2 := mk(1), mk(2)
		for i := 0; i < 10; i++ {
			e1.Send(2, []byte{byte(i)}, nil, nil)
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		st := b.Stats()
		addLedger(&st, e1)
		addLedger(&st, e2)
		return st, events
	}
	withObs, n := run(true)
	withoutObs, zero := run(false)
	if n == 0 {
		t.Fatal("observer saw nothing")
	}
	if zero != 0 {
		t.Fatal("events built with no observer installed")
	}
	if withObs.FramesSent != withoutObs.FramesSent ||
		withObs.Retransmissions != withoutObs.Retransmissions ||
		withObs.BytesSent != withoutObs.BytesSent {
		t.Errorf("observer changed the run: %+v vs %+v", withObs, withoutObs)
	}
}
