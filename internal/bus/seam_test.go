package bus

import (
	"testing"
	"time"

	"soda/internal/frame"
	"soda/internal/sim"
)

// TestNewDefaultsBandwidth checks that a zero bandwidth falls back to the
// default line rate instead of dividing by zero.
func TestNewDefaultsBandwidth(t *testing.T) {
	k := sim.New(1)
	b := New(k, Config{})
	var at sim.Time
	if _, err := b.Attach(2, func([]byte) { at = k.Now() }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	i1.Send(2, testFrame(frame.TransportData, 125)) // 1000 bits at the default 1 Mbit/s
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms at the default bandwidth", at)
	}
}

// TestWireSeamAttach drives the bus through the transport's wire seam: the
// handle it returns sends like a bus interface, and a refused attachment
// yields a nil interface, not a typed-nil handle.
func TestWireSeamAttach(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	w := b.Wire()
	heard := 0
	if _, err := w.Attach(2, func([]byte) { heard++ }); err != nil {
		t.Fatal(err)
	}
	i1, err := w.Attach(1, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	i1.Send(2, testFrame(frame.TransportData, 16))
	i1.CountRetransmission()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if heard != 1 {
		t.Fatalf("receiver heard %d frames through the seam, want 1", heard)
	}
	if got := b.Stats().Retransmissions; got != 1 {
		t.Fatalf("Retransmissions = %d through the seam, want 1", got)
	}
	dup, err := w.Attach(2, func([]byte) {})
	if err == nil {
		t.Fatal("wire Attach accepted a duplicate MID")
	}
	if dup != nil {
		t.Fatalf("refused wire Attach returned a non-nil handle %#v", dup)
	}
}

// TestBridgesFanOutInMIDOrder checks that bridges attached out of order
// still hear an unrouted unicast in MID order, the order the fan-out's
// same-time deliveries are scheduled in.
func TestBridgesFanOutInMIDOrder(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	var order []frame.MID
	for _, mid := range []frame.MID{0xFE05, 0xFE01, 0xFE03} {
		mid := mid
		if _, err := b.AttachBridge(mid, func([]byte) { order = append(order, mid) }); err != nil {
			t.Fatal(err)
		}
	}
	i1, _ := b.Attach(1, func([]byte) {})
	i1.Send(77, testFrame(frame.TransportData, 16))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []frame.MID{0xFE01, 0xFE03, 0xFE05}
	if len(order) != len(want) {
		t.Fatalf("bridges heard %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("bridges heard %v, want %v", order, want)
		}
	}
}

// TestArbitrationJitterIsBoundedAndSeeded checks that a sender finding the
// line busy waits at most ArbJitter beyond the previous transmission, and
// that the wait comes from the kernel's seeded stream.
func TestArbitrationJitterIsBoundedAndSeeded(t *testing.T) {
	run := func() []sim.Time {
		k := sim.New(7)
		cfg := DefaultConfig()
		cfg.PropDelay = 0
		cfg.ArbJitter = 500 * time.Microsecond
		b := New(k, cfg)
		var times []sim.Time
		if _, err := b.Attach(9, func([]byte) { times = append(times, k.Now()) }); err != nil {
			t.Fatal(err)
		}
		i1, _ := b.Attach(1, func([]byte) {})
		i2, _ := b.Attach(2, func([]byte) {})
		i1.Send(9, testFrame(frame.TransportData, 125))
		i2.Send(9, testFrame(frame.TransportData, 125)) // line busy until 1ms
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != 2 || a[0] != time.Millisecond {
		t.Fatalf("delivery times = %v, want the first at 1ms", a)
	}
	if lo, hi := 2*time.Millisecond, 2*time.Millisecond+500*time.Microsecond; a[1] < lo || a[1] > hi {
		t.Fatalf("jittered delivery at %v, want within [%v, %v]", a[1], lo, hi)
	}
	if a[1] != b[1] {
		t.Fatalf("same seed gave jittered deliveries at %v and %v", a[1], b[1])
	}
}

// TestBridgeDropsCorruptedFrame checks that a gateway never hears damage:
// a corrupted frame addressed to a bridge is dropped before the delivery
// taps and counted, while a plain receiver still gets its damaged copy.
func TestBridgeDropsCorruptedFrame(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	b.SetFaultModel(judgeFunc(func(sim.Time, frame.MID, frame.MID, []byte) FaultAction {
		return FaultAction{Corrupt: true}
	}))
	taps := 0
	b.SetHooks(Hooks{Delivery: func(DeliveryEvent) { taps++ }})
	bridgeHeard, plainHeard := 0, 0
	if _, err := b.AttachBridge(0xFE00, func([]byte) { bridgeHeard++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(2, func([]byte) { plainHeard++ }); err != nil {
		t.Fatal(err)
	}
	i1, _ := b.Attach(1, func([]byte) {})
	i1.Send(77, wireFrame([]byte("to another segment")))
	i1.Send(2, wireFrame([]byte("local")))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bridgeHeard != 0 {
		t.Fatalf("bridge heard %d corrupted frames, want 0", bridgeHeard)
	}
	if plainHeard != 1 || taps != 1 {
		t.Fatalf("plain receiver heard %d and taps saw %d, want 1 and 1", plainHeard, taps)
	}
	st := b.Stats()
	if st.BridgeCorruptDrops != 1 || st.FramesCorrupted != 2 {
		t.Fatalf("BridgeCorruptDrops=%d FramesCorrupted=%d, want 1 and 2", st.BridgeCorruptDrops, st.FramesCorrupted)
	}
}
