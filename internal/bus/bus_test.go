package bus

import (
	"testing"
	"time"

	"soda/internal/frame"
	"soda/internal/sim"
)

func testFrame(kind frame.TransportKind, n int) []byte {
	raw := make([]byte, n)
	if n > 0 {
		raw[0] = byte(kind)
	}
	return raw
}

func TestUnicastDelivery(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	var got []byte
	var at sim.Time
	if _, err := b.Attach(2, func(raw []byte) { got = raw; at = k.Now() }); err != nil {
		t.Fatal(err)
	}
	i1, err := b.Attach(1, func([]byte) { t.Error("sender must not hear itself") })
	if err != nil {
		t.Fatal(err)
	}
	payload := testFrame(frame.TransportData, 125) // 1000 bits @ 1 Mbit = 1 ms
	i1.Send(2, payload)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == nil {
		t.Fatal("frame not delivered")
	}
	want := time.Millisecond + DefaultConfig().PropDelay
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestBroadcastDeliversToAllButSender(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	heard := make(map[frame.MID]int)
	var senderIface *Iface
	for mid := frame.MID(1); mid <= 4; mid++ {
		mid := mid
		i, err := b.Attach(mid, func([]byte) { heard[mid]++ })
		if err != nil {
			t.Fatal(err)
		}
		if mid == 1 {
			senderIface = i
		}
	}
	senderIface.Send(frame.BroadcastMID, testFrame(frame.TransportData, 20))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if heard[1] != 0 {
		t.Error("sender heard its own broadcast")
	}
	for mid := frame.MID(2); mid <= 4; mid++ {
		if heard[mid] != 1 {
			t.Errorf("node %d heard %d copies, want 1", mid, heard[mid])
		}
	}
}

func TestMediumSerializesTransmissions(t *testing.T) {
	k := sim.New(1)
	cfg := DefaultConfig()
	cfg.PropDelay = 0
	b := New(k, cfg)
	var times []sim.Time
	if _, err := b.Attach(9, func([]byte) { times = append(times, k.Now()) }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	i2, _ := b.Attach(2, func([]byte) {})
	// Two 125-byte frames sent at t=0 must serialize: 1 ms and 2 ms.
	i1.Send(9, testFrame(frame.TransportData, 125))
	i2.Send(9, testFrame(frame.TransportData, 125))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("delivery times = %v, want [1ms 2ms]", times)
	}
}

func TestLossModelDropsFrames(t *testing.T) {
	k := sim.New(42)
	cfg := DefaultConfig()
	cfg.LossProb = 0.5
	b := New(k, cfg)
	received := 0
	if _, err := b.Attach(2, func([]byte) { received++ }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	const n = 400
	for range [n]struct{}{} {
		i1.Send(2, testFrame(frame.TransportData, 10))
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received == 0 || received == n {
		t.Fatalf("received %d/%d; loss model inert", received, n)
	}
	st := b.Stats()
	if st.FramesLost+st.FramesDelivered != n {
		t.Fatalf("lost %d + delivered %d != sent %d", st.FramesLost, st.FramesDelivered, n)
	}
}

func TestDownedInterface(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	received := 0
	i2, err := b.Attach(2, func([]byte) { received++ })
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	i2.Down()
	i1.Send(2, testFrame(frame.TransportData, 10))
	// A downed sender cannot transmit either.
	i2.Send(1, testFrame(frame.TransportData, 10))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received != 0 {
		t.Fatalf("downed interface received %d frames", received)
	}
	st := b.Stats()
	if st.FramesSent != 1 {
		t.Fatalf("FramesSent = %d, want 1 (downed iface must not transmit)", st.FramesSent)
	}
	if st.FramesDroppedDown != 1 || st.FramesLost != 0 {
		t.Fatalf("FramesDroppedDown = %d, FramesLost = %d; want the downed-iface discard counted separately (1, 0)",
			st.FramesDroppedDown, st.FramesLost)
	}

	// After Up, traffic flows again.
	i2.Up()
	i1.Send(2, testFrame(frame.TransportData, 10))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received != 1 {
		t.Fatalf("received %d after Up, want 1", received)
	}
}

func TestAttachErrors(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	if _, err := b.Attach(frame.BroadcastMID, func([]byte) {}); err == nil {
		t.Error("attaching broadcast MID must fail")
	}
	if _, err := b.Attach(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(1, func([]byte) {}); err == nil {
		t.Error("duplicate attach must fail")
	}
}

func TestStatsByKindAndReset(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	if _, err := b.Attach(2, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	i1.Send(2, testFrame(frame.TransportData, 30))
	i1.Send(2, testFrame(frame.TransportAck, 12))
	i1.Send(2, testFrame(frame.TransportAck, 12))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := b.Stats()
	if st.ByKind[frame.TransportData] != 1 || st.ByKind[frame.TransportAck] != 2 {
		t.Fatalf("ByKind = %v", st.ByKind)
	}
	if st.BytesSent != 54 {
		t.Fatalf("BytesSent = %d, want 54", st.BytesSent)
	}
	b.ResetStats()
	if got := b.Stats(); got.FramesSent != 0 || len(got.ByKind) != 0 {
		t.Fatalf("stats not reset: %+v", got)
	}
}

func TestTapObservesTransmissions(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	if _, err := b.Attach(2, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	var evs []TapEvent
	b.SetHooks(Hooks{Transmit: func(e TapEvent) { evs = append(evs, e) }})
	i1.Send(2, testFrame(frame.TransportNack, 12))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(evs) != 1 {
		t.Fatalf("tap saw %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Src != 1 || e.Dst != 2 || e.Kind != frame.TransportNack || e.Size != 12 {
		t.Fatalf("tap event = %+v", e)
	}
}

func TestSendToUnknownDestinationIsSilent(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	i1, _ := b.Attach(1, func([]byte) {})
	i1.Send(99, testFrame(frame.TransportData, 10))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := b.Stats(); st.FramesDelivered != 0 {
		t.Fatalf("delivered %d frames to nobody", st.FramesDelivered)
	}
}

// judgeFunc adapts a function to the FaultModel interface for tests.
type judgeFunc func(now sim.Time, src, dst frame.MID, raw []byte) FaultAction

func (f judgeFunc) Judge(now sim.Time, src, dst frame.MID, raw []byte) FaultAction {
	return f(now, src, dst, raw)
}

// wireFrame builds a well-formed 16-byte-header transport frame so the
// corruption model's length-field damage is observable via DecodeTransportShared.
func wireFrame(payload []byte) []byte {
	return frame.EncodeTransport(&frame.TransportFrame{
		Kind:    frame.TransportData,
		Src:     1,
		Dst:     2,
		Payload: payload,
	})
}

func TestFaultModelDrop(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	received := 0
	if _, err := b.Attach(2, func([]byte) { received++ }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	drop := true
	b.SetFaultModel(judgeFunc(func(_ sim.Time, src, dst frame.MID, _ []byte) FaultAction {
		if src != 1 || dst != 2 {
			t.Errorf("Judge saw link %d->%d, want 1->2", src, dst)
		}
		return FaultAction{Drop: drop}
	}))
	i1.Send(2, testFrame(frame.TransportData, 10))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received != 0 {
		t.Fatal("dropped frame was delivered")
	}
	drop = false
	i1.Send(2, testFrame(frame.TransportData, 10))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received != 1 {
		t.Fatalf("received %d after fault cleared, want 1", received)
	}
	if st := b.Stats(); st.FramesLost != 1 {
		t.Fatalf("FramesLost = %d, want 1", st.FramesLost)
	}
}

func TestFaultModelCorruptIsAlwaysDetectable(t *testing.T) {
	k := sim.New(7)
	b := New(k, DefaultConfig())
	var got [][]byte
	if _, err := b.Attach(2, func(raw []byte) { got = append(got, raw) }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	b.SetFaultModel(judgeFunc(func(sim.Time, frame.MID, frame.MID, []byte) FaultAction {
		return FaultAction{Corrupt: true}
	}))
	const n = 200
	original := wireFrame([]byte("kernel message payload"))
	for range [n]struct{}{} {
		i1.Send(2, original)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d corrupted frames, want %d", len(got), n)
	}
	for _, raw := range got {
		if _, err := frame.DecodeTransportShared(raw); err == nil {
			t.Fatalf("corrupted frame decoded cleanly: % x", raw)
		}
	}
	if st := b.Stats(); st.FramesCorrupted != n {
		t.Fatalf("FramesCorrupted = %d, want %d", st.FramesCorrupted, n)
	}
}

func TestFaultModelDuplicateAndDelayPreserveFIFO(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	var times []sim.Time
	if _, err := b.Attach(2, func([]byte) { times = append(times, k.Now()) }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	first := true
	b.SetFaultModel(judgeFunc(func(sim.Time, frame.MID, frame.MID, []byte) FaultAction {
		if first {
			first = false
			// Delay the first frame well past the second's natural
			// arrival, and duplicate it.
			return FaultAction{Delay: 50 * time.Millisecond, Duplicate: true}
		}
		return FaultAction{}
	}))
	i1.Send(2, testFrame(frame.TransportData, 125))
	i1.Send(2, testFrame(frame.TransportData, 125))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 3 {
		t.Fatalf("delivered %d frames, want 3 (original + duplicate + second)", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("deliveries out of FIFO order: %v", times)
		}
	}
	// The undelayed second frame must not overtake the delayed first.
	if times[0] < 50*time.Millisecond {
		t.Fatalf("delayed frame arrived at %v, want >= 50ms", times[0])
	}
	if st := b.Stats(); st.FramesDuplicated != 1 || st.FramesDelivered != 3 {
		t.Fatalf("FramesDuplicated = %d, FramesDelivered = %d; want 1, 3", st.FramesDuplicated, st.FramesDelivered)
	}
}

func TestDeliveryTapSeesDeliveries(t *testing.T) {
	k := sim.New(3)
	b := New(k, DefaultConfig())
	if _, err := b.Attach(2, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	corrupt := false
	b.SetFaultModel(judgeFunc(func(sim.Time, frame.MID, frame.MID, []byte) FaultAction {
		return FaultAction{Corrupt: corrupt}
	}))
	var evs []DeliveryEvent
	b.SetHooks(Hooks{Delivery: func(e DeliveryEvent) { evs = append(evs, e) }})
	i1.Send(2, wireFrame([]byte("ok")))
	corrupt = true
	i1.Send(2, wireFrame([]byte("damaged")))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("tap saw %d deliveries, want 2", len(evs))
	}
	if evs[0].Corrupted || !evs[1].Corrupted {
		t.Fatalf("corruption marks = [%v %v], want [false true]", evs[0].Corrupted, evs[1].Corrupted)
	}
	if evs[0].Src != 1 || evs[0].Dst != 2 {
		t.Fatalf("delivery event link = %d->%d, want 1->2", evs[0].Src, evs[0].Dst)
	}
	if _, err := frame.DecodeTransportShared(evs[0].Raw); err != nil {
		t.Fatalf("undamaged delivery fails decode: %v", err)
	}
}

// TestDeliveryBufferOwnership pins the buffer-ownership contract: Send
// takes ownership of raw, and every clean delivery shares the sender's
// very bytes (no per-receiver copy), while a corrupted delivery damages a
// private copy so the other receivers of the same broadcast still see the
// frame intact.
func TestDeliveryBufferOwnership(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	var clean, damaged []byte
	if _, err := b.Attach(2, func(raw []byte) { clean = raw }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(3, func(raw []byte) { damaged = raw }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	b.SetFaultModel(judgeFunc(func(_ sim.Time, _, dst frame.MID, _ []byte) FaultAction {
		return FaultAction{Corrupt: dst == 3}
	}))
	sent := wireFrame([]byte("shared payload"))
	pristine := wireFrame([]byte("shared payload"))
	i1.Send(frame.BroadcastMID, sent)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if clean == nil || damaged == nil {
		t.Fatal("missing deliveries")
	}
	if &clean[0] != &sent[0] {
		t.Fatal("clean delivery copied the buffer; want the sender's bytes shared")
	}
	if &damaged[0] == &sent[0] {
		t.Fatal("corrupted delivery aliases the shared buffer")
	}
	if string(sent) != string(pristine) {
		t.Fatal("corruption damaged the shared buffer in place")
	}
}
