package bus

import (
	"testing"
	"time"

	"soda/internal/frame"
	"soda/internal/sim"
)

// TestBridgeHearsUnroutedUnicast pins the internetwork seam: a unicast to
// a MID not attached on this bus falls through to every bridge interface,
// while a locally-attached destination is never mirrored to bridges.
func TestBridgeHearsUnroutedUnicast(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	var atB, atBridge [][]byte
	ifA, err := b.Attach(1, func(raw []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(2, func(raw []byte) { atB = append(atB, raw) }); err != nil {
		t.Fatal(err)
	}
	br, err := b.AttachBridge(0xFE00, func(raw []byte) { atBridge = append(atBridge, raw) })
	if err != nil {
		t.Fatal(err)
	}
	// Bridges cannot share a MID with an attached interface.
	if _, err := b.AttachBridge(2, func([]byte) {}); err == nil {
		t.Fatal("AttachBridge accepted a duplicate MID")
	}

	ifA.Send(2, testFrame(frame.TransportData, 32))  // local: bridge must not hear it
	ifA.Send(77, testFrame(frame.TransportData, 32)) // absent: bridge fallthrough
	if err := k.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(atB) != 1 {
		t.Fatalf("local receiver heard %d frames, want 1", len(atB))
	}
	if len(atBridge) != 1 {
		t.Fatalf("bridge heard %d frames, want only the unrouted unicast", len(atBridge))
	}

	// A detached bridge stops hearing fallthrough traffic.
	br.Detach()
	ifA.Send(77, testFrame(frame.TransportData, 32))
	if err := k.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(atBridge) != 1 {
		t.Fatalf("detached bridge heard %d frames, want 1", len(atBridge))
	}
}

// TestBridgeDoesNotEchoSender checks the sending bridge is excluded from
// the fallthrough set (a gateway must not hear its own relay back).
func TestBridgeDoesNotEchoSender(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	var atG1, atG2 int
	g1, err := b.AttachBridge(0xFE00, func([]byte) { atG1++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachBridge(0xFE01, func([]byte) { atG2++ }); err != nil {
		t.Fatal(err)
	}
	g1.Send(77, testFrame(frame.TransportData, 16))
	if err := k.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if atG1 != 0 {
		t.Fatalf("sending bridge heard its own frame %d times", atG1)
	}
	if atG2 != 1 {
		t.Fatalf("peer bridge heard %d frames, want 1", atG2)
	}
}
