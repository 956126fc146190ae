package netx

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
)

// waitMax bounds every blocking wait in this file; tests fail loudly on
// expiry instead of hanging.
const waitMax = 10 * time.Second

func mkRaw(n int) []byte {
	raw := make([]byte, n)
	for i := range raw {
		raw[i] = byte(i)
	}
	return raw
}

func TestFramerRoundTrip(t *testing.T) {
	first := mkRaw(minFrameLen)
	second := mkRaw(200)
	buf := bytes.NewBuffer(AppendFrame(AppendFrame(nil, first), second))
	for i, want := range [][]byte{first, second} {
		got, err := ReadFrame(buf, MaxFrameLen)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadFrame #%d = %x, want %x", i, got, want)
		}
	}
	if _, err := ReadFrame(buf, MaxFrameLen); err != io.EOF {
		t.Fatalf("ReadFrame on empty stream = %v, want io.EOF", err)
	}
}

func TestFramerRejects(t *testing.T) {
	cases := []struct {
		name    string
		stream  []byte
		framing bool // want a framing error (vs plain EOF class)
	}{
		{"runt length", AppendFrame(nil, mkRaw(minFrameLen-1)), true},
		{"oversized length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, true},
		{"truncated prefix", []byte{0x00, 0x00}, false},
		{"mid-frame eof", AppendFrame(nil, mkRaw(64))[:20], false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.stream), MaxFrameLen)
			if err == nil {
				t.Fatal("ReadFrame accepted a malformed stream")
			}
			if got := IsFramingError(err); got != tc.framing {
				t.Fatalf("IsFramingError(%v) = %v, want %v", err, got, tc.framing)
			}
			if !tc.framing && !errors.Is(err, io.ErrUnexpectedEOF) && err != io.EOF {
				t.Fatalf("truncation error = %v, want an EOF class", err)
			}
		})
	}
}

// TestOverCapFrameKeepsConnection sends a frame longer than the stream
// framing carries, then a small one, to a peer that is a bare listener: the
// long frame is lost like a frame on a lossy wire, and the small one
// arrives on the same connection, with no redial.
func TestOverCapFrameKeepsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	k := sim.New(1)
	n, err := New(k, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	iface, err := n.Attach(1, func([]byte) {})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	n.SetPeer(2, ln.Addr().String())
	small := mkRaw(64)
	k.At(0, func() {
		iface.Send(2, mkRaw(MaxFrameLen+1))
		iface.Send(2, small)
	})
	n.Start(nil)
	defer func() {
		if err := n.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	var c net.Conn
	select {
	case c = <-accepted:
	case <-time.After(waitMax):
		t.Fatal("the network never dialed its peer")
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(waitMax))
	got, err := ReadFrame(c, MaxFrameLen)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, small) {
		t.Fatalf("first frame on the stream is %d bytes, want the %d-byte frame", len(got), len(small))
	}
	select {
	case c2 := <-accepted:
		c2.Close()
		t.Fatal("the over-cap frame made the network redial")
	default:
	}
	if lost := n.Stats().FramesLost; lost != 1 {
		t.Fatalf("FramesLost = %d, want 1", lost)
	}
}

// node is one in-process socket network with a Delta-t endpoint on it.
type node struct {
	k  *sim.Kernel
	n  *Network
	ep *deltat.Endpoint
}

func newNode(t *testing.T, mid frame.MID, hooks deltat.Hooks) *node {
	t.Helper()
	k := sim.New(int64(mid))
	k.SetEventLimit(2_000_000)
	n, err := New(k, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if hooks.OnData == nil {
		hooks.OnData = func(frame.MID, []byte) deltat.Decision {
			return deltat.Decision{Verdict: deltat.VerdictAck}
		}
	}
	ep, err := deltat.New(k, n, mid, deltat.DefaultConfig(), hooks)
	if err != nil {
		t.Fatalf("deltat.New: %v", err)
	}
	return &node{k: k, n: n, ep: ep}
}

func closeAll(t *testing.T, nodes ...*node) {
	t.Helper()
	for _, nd := range nodes {
		// The nil error is the leak check: Close waits for every socket
		// goroutine (accept, read, write, driver) to drain.
		if err := nd.n.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

func TestTwoNetworksExchange(t *testing.T) {
	var delivered []byte
	var res *deltat.Result
	server := newNode(t, 2, deltat.Hooks{
		OnData: func(src frame.MID, payload []byte) deltat.Decision {
			delivered = append([]byte(nil), payload...)
			return deltat.Decision{Verdict: deltat.VerdictAck, Reply: []byte("pong")}
		},
	})
	client := newNode(t, 1, deltat.Hooks{})
	defer closeAll(t, server, client)

	// Ephemeral ports: both sides bound :0, so the peer map is wired
	// after the fact from the reported addresses.
	server.n.SetPeer(1, client.n.Addr())
	client.n.SetPeer(2, server.n.Addr())

	// The kernel is owned by the driver goroutine once Start runs, so the
	// send is staged as a virtual-time event, not called directly.
	client.k.At(0, func() {
		client.ep.Send(2, []byte("ping"), nil, func(got deltat.Result) { res = &got })
	})
	server.n.Start(nil)
	client.n.Start(func() bool { return res != nil })

	if !client.n.Wait(waitMax) {
		t.Fatal("client driver did not park: no ACK within the deadline")
	}
	if res.Kind != deltat.ResultAcked || string(res.Reply) != "pong" {
		t.Fatalf("result = %+v, want acked with pong", res)
	}
	if !server.n.WaitIdle(50*time.Millisecond, waitMax) {
		t.Fatal("server never went idle")
	}
	if string(delivered) != "ping" {
		t.Fatalf("server saw %q, want ping", delivered)
	}
	cs, ss := client.n.Stats(), server.n.Stats()
	if cs.FramesSent == 0 || ss.FramesSent == 0 {
		t.Fatalf("stats did not count traffic: client %+v server %+v", cs, ss)
	}
}

// TestWaitIdleReturnsAtOnceOnParkedDriver pins WaitIdle's documented
// shortcut: a parked driver counts as quiescent, so WaitIdle after Wait
// returns true at once, long before its settle time, whatever the endpoint
// still owes its peers. Settling takes a driver that keeps running.
func TestWaitIdleReturnsAtOnceOnParkedDriver(t *testing.T) {
	server := newNode(t, 2, deltat.Hooks{})
	client := newNode(t, 1, deltat.Hooks{})
	defer closeAll(t, server, client)
	server.n.SetPeer(1, client.n.Addr())
	client.n.SetPeer(2, server.n.Addr())
	var res *deltat.Result
	client.k.At(0, func() {
		client.ep.Send(2, []byte("ping"), nil, func(got deltat.Result) { res = &got })
	})
	server.n.Start(nil)
	client.n.Start(func() bool { return res != nil })
	if !client.n.Wait(waitMax) {
		t.Fatal("client driver did not park: no ACK within the deadline")
	}
	const settle = time.Minute
	start := time.Now()
	if !client.n.WaitIdle(settle, 2*settle) {
		t.Fatal("WaitIdle on a parked driver reported no quiescence")
	}
	if waited := time.Since(start); waited >= settle/2 {
		t.Fatalf("WaitIdle on a parked driver waited %v; it returns at once", waited)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	k := sim.New(1)
	k.SetEventLimit(2_000_000)
	n, err := New(k, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var res *deltat.Result
	mk := func(mid frame.MID) *deltat.Endpoint {
		ep, err := deltat.New(k, n, mid, deltat.DefaultConfig(), deltat.Hooks{
			OnData: func(frame.MID, []byte) deltat.Decision {
				return deltat.Decision{Verdict: deltat.VerdictAck}
			},
		})
		if err != nil {
			t.Fatalf("deltat.New(%d): %v", mid, err)
		}
		return ep
	}
	e1 := mk(1)
	mk(2)
	k.At(0, func() {
		e1.Send(2, []byte("local"), nil, func(got deltat.Result) { res = &got })
	})
	n.Start(func() bool { return res != nil })
	if !n.Wait(waitMax) {
		t.Fatal("driver did not park")
	}
	if res.Kind != deltat.ResultAcked {
		t.Fatalf("result = %+v, want acked", res)
	}
	if err := n.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestSendToUnknownPeerIsDropped(t *testing.T) {
	k := sim.New(1)
	n, err := New(k, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	iface, err := n.Attach(1, func([]byte) {})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	k.At(0, func() { iface.Send(7, mkRaw(minFrameLen)) })
	n.RunFor(20 * time.Millisecond)
	if got := n.Stats().FramesLost; got == 0 {
		t.Fatal("send to an undeclared peer was not counted as lost")
	}
	if err := n.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestAttachRejects(t *testing.T) {
	k := sim.New(1)
	n, err := New(k, Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n.Close()
	if _, err := n.Attach(frame.BroadcastMID, func([]byte) {}); err == nil {
		t.Fatal("Attach(BroadcastMID) succeeded")
	}
	if _, err := n.Attach(3, func([]byte) {}); err != nil {
		t.Fatalf("Attach(3): %v", err)
	}
	if _, err := n.Attach(3, func([]byte) {}); err == nil {
		t.Fatal("duplicate Attach succeeded")
	}
}

func TestRedialAfterPeerRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("redial test opens sockets and waits on real time")
	}
	var res *deltat.Result
	// A patient transport: the default DeadAfter (MPL+Δt ≈ 142ms) would
	// declare the peer dead during the deliberate outage below, which is
	// correct protocol behavior but not what this test is probing.
	patient := deltat.DefaultConfig()
	patient.R = 5 * time.Second
	ck := sim.New(1)
	ck.SetEventLimit(2_000_000)
	cn, err := New(ck, Config{Listen: "127.0.0.1:0", RedialInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("New client: %v", err)
	}
	cep, err := deltat.New(ck, cn, 1, patient, deltat.Hooks{
		OnData: func(frame.MID, []byte) deltat.Decision {
			return deltat.Decision{Verdict: deltat.VerdictAck}
		},
	})
	if err != nil {
		t.Fatalf("deltat.New client: %v", err)
	}
	client := &node{k: ck, n: cn, ep: cep}
	server := newNode(t, 2, deltat.Hooks{})
	server.n.SetPeer(1, client.n.Addr())
	client.n.SetPeer(2, server.n.Addr())

	// Kill the server's listener before the client ever dials: the first
	// dial fails, the peer loop re-dials, and Delta-t retransmits through
	// the outage once the listener is back.
	addr := server.n.Addr()
	if err := server.n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	client.k.At(0, func() {
		client.ep.Send(2, []byte("ping"), nil, func(got deltat.Result) { res = &got })
	})
	client.n.Start(func() bool { return res != nil })

	// Rebind the same address. The port just freed; on loopback this is
	// reliable enough outside -short, and a bind failure skips the test
	// rather than failing it.
	time.Sleep(100 * time.Millisecond)
	k2 := sim.New(2)
	k2.SetEventLimit(2_000_000)
	n2, err := New(k2, Config{Listen: addr})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	if _, err := deltat.New(k2, n2, 2, deltat.DefaultConfig(), deltat.Hooks{
		OnData: func(frame.MID, []byte) deltat.Decision {
			return deltat.Decision{Verdict: deltat.VerdictAck}
		},
	}); err != nil {
		t.Fatalf("deltat.New: %v", err)
	}
	n2.SetPeer(1, client.n.Addr())
	n2.Start(nil)

	if !client.n.Wait(waitMax) {
		t.Fatal("client driver did not park: retransmission never reached the restarted peer")
	}
	if res.Kind != deltat.ResultAcked {
		t.Fatalf("result = %+v, want acked", res)
	}
	if err := n2.Close(); err != nil {
		t.Errorf("Close restarted server: %v", err)
	}
	if err := client.n.Close(); err != nil {
		t.Errorf("Close client: %v", err)
	}
}
