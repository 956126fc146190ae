package soda_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"soda"
)

// TestSocketRunSeesItsWire runs one DISCOVER and one EXCHANGE between two
// socket networks over loopback TCP, each with the invariant checker and
// a frame log attached. Each side must see its own wire as a simulated
// network does: the checker judges every delivered frame, and the frame
// log prints every frame sent. (Each checker sees only its own network's
// kernels, so its request verdict, which needs both ends, is not read.)
func TestSocketRunSeesItsWire(t *testing.T) {
	if testing.Short() {
		t.Skip("opens real sockets")
	}
	srv := soda.NewNetwork(soda.WithSocketTransport("127.0.0.1:0"), soda.WithInvariantChecks())
	cli := soda.NewNetwork(soda.WithSocketTransport("127.0.0.1:0"), soda.WithInvariantChecks())
	var srvLog, cliLog bytes.Buffer
	srv.Trace(&srvLog)
	cli.Trace(&cliLog)
	srv.Register("echo", echo("pong"))
	var got soda.CallResult
	done := false
	cli.Register("client", soda.Program{Task: func(c *soda.Client) {
		defer func() { done = true }()
		for i := 0; i < 20; i++ {
			if s, ok := c.Discover(pattern); ok {
				got = c.BExchange(s, soda.OK, []byte("ping"), 16)
				return
			}
			c.Hold(50 * time.Millisecond)
		}
	}})
	srv.MustAddNode(1)
	cli.MustAddNode(2)
	srv.SetSocketPeer(2, cli.SocketAddr())
	cli.SetSocketPeer(1, srv.SocketAddr())
	srv.MustBoot(1, "echo")
	srv.StartSocket(nil)
	cli.MustBoot(2, "client")
	cli.StartSocket(func() bool { return done })
	parked := cli.WaitSocket(10 * time.Second)
	srv.WaitSocketIdle(50*time.Millisecond, 5*time.Second)
	for _, nw := range []*soda.Network{cli, srv} {
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !parked {
		t.Fatal("client did not finish within 10s")
	}
	if got.Status != soda.StatusSuccess || string(got.Data) != "pong" {
		t.Fatalf("EXCHANGE = %v %q, want success \"pong\"", got.Status, got.Data)
	}
	for _, side := range []struct {
		name string
		nw   *soda.Network
		log  string
	}{{"client", cli, cliLog.String()}, {"server", srv, srvLog.String()}} {
		st := side.nw.Stats()
		ch := side.nw.Invariants()
		if frames, _ := ch.Frames(); frames == 0 || frames != st.FramesDelivered {
			t.Errorf("%s: checker saw %d delivered frames, the wire delivered %d", side.name, frames, st.FramesDelivered)
		}
		if lines := uint64(strings.Count(side.log, "\n")); lines == 0 || lines != st.FramesSent {
			t.Errorf("%s: frame log has %d lines, the wire sent %d frames", side.name, lines, st.FramesSent)
		}
	}
	if n := cli.Invariants().Requests(); n < 2 {
		t.Errorf("client checker tracked %d requests, want the DISCOVER and the EXCHANGE", n)
	}
}

// TestSubscribeAfterAddNodePanics pins the stream's one setup rule: nodes
// copy their hooks when added, so a later subscriber would silently miss
// their events. Trace subscribes too.
func TestSubscribeAfterAddNodePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		late func(*soda.Network)
	}{
		{"Subscribe", func(nw *soda.Network) { nw.Subscribe(soda.Subscriber{Kernel: func(soda.KernelEvent) {}}) }},
		{"Trace", func(nw *soda.Network) { nw.Trace(&bytes.Buffer{}) }},
	} {
		nw := soda.NewNetwork()
		nw.MustAddNode(1)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "Subscribe after AddNode") {
					t.Errorf("%s after AddNode: recovered %v, want the setup-rule panic", c.name, r)
				}
			}()
			c.late(nw)
		}()
	}
}

// TestNodeConfigObserverPanics: a node configuration carrying its own
// kernel or transport observer would bypass the stream, so NewNetwork
// refuses it.
func TestNodeConfigObserverPanics(t *testing.T) {
	kernel, transport := soda.DefaultNodeConfig(), soda.DefaultNodeConfig()
	kernel.Observer = func(soda.KernelEvent) {}
	transport.Transport.Observer = func(soda.TransportEvent) {}
	for i, cfg := range []soda.Config{kernel, transport} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "Network.Subscribe") {
					t.Errorf("config %d: recovered %v, want a panic naming Subscribe", i, r)
				}
			}()
			soda.NewNetwork(soda.WithNodeConfig(cfg))
		}()
	}
}
