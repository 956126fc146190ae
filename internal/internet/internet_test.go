package internet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/core"
	"soda/internal/frame"
	"soda/internal/sim"
)

// testNet is a segmented network with one raw listener interface per MID,
// recording every frame it hears. Frames are crafted transport datagrams so
// the gateways can parse the header without running full SODA nodes.
type testNet struct {
	t     *testing.T
	k     *sim.Kernel
	in    *Internet
	heard map[frame.MID][][]byte
	iface map[frame.MID]*bus.Iface
}

func newTestNet(t *testing.T, topo Topology, mids ...frame.MID) *testNet {
	t.Helper()
	k := sim.New(1)
	in, err := New(k, bus.DefaultConfig(), topo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := &testNet{
		t:     t,
		k:     k,
		in:    in,
		heard: make(map[frame.MID][][]byte),
		iface: make(map[frame.MID]*bus.Iface),
	}
	for _, mid := range mids {
		mid := mid
		b, err := in.BusFor(mid)
		if err != nil {
			t.Fatalf("BusFor(%d): %v", mid, err)
		}
		iface, err := b.Attach(mid, func(raw []byte) {
			cp := make([]byte, len(raw))
			copy(cp, raw)
			n.heard[mid] = append(n.heard[mid], cp)
		})
		if err != nil {
			t.Fatalf("Attach(%d): %v", mid, err)
		}
		n.iface[mid] = iface
	}
	return n
}

// datagram builds a transport datagram frame carrying msg.
func datagram(src, dst frame.MID, msg frame.Message) []byte {
	return frame.EncodeTransport(&frame.TransportFrame{
		Kind:    frame.TransportDatagram,
		Src:     src,
		Dst:     dst,
		Payload: frame.Encode(msg),
	})
}

func (n *testNet) send(src, dst frame.MID, msg frame.Message) {
	n.iface[src].Send(dst, datagram(src, dst, msg))
}

func (n *testNet) run(d time.Duration) {
	n.t.Helper()
	if err := n.k.RunUntil(sim.Time(d)); err != nil {
		n.t.Fatalf("run: %v", err)
	}
}

// TestRoutesStar pins the BFS routing table of a 4-segment star: every
// cross-segment path goes through the backbone (segment 0), and the
// designated gateway for segment s is always gateway s-1.
func TestRoutesStar(t *testing.T) {
	n := newTestNet(t, Star(4))
	in := n.in
	// From any spoke s toward another spoke r, the first hop off s is its
	// own gateway (s-1) onto the backbone.
	for r := 1; r < 4; r++ {
		for s := 1; s < 4; s++ {
			if s == r {
				continue
			}
			got := in.parent[r][s]
			if got.gw != s-1 || got.seg != 0 {
				t.Fatalf("parent[%d][%d] = %+v, want {gw:%d seg:0}", r, s, got, s-1)
			}
		}
		// From the backbone toward spoke r, gateway r-1 is designated.
		if got := in.parent[r][0]; got.gw != r-1 || got.seg != r {
			t.Fatalf("parent[%d][0] = %+v, want {gw:%d seg:%d}", r, got, r-1, r)
		}
	}
}

// TestUnicastForward checks the basic store-and-forward path: a unicast to
// a node on another segment crosses the gateway once, with its hop count
// bumped and the forward counted.
func TestUnicastForward(t *testing.T) {
	// Star(2): mids 2 (seg 0) and 3 (seg 1), one gateway between them.
	n := newTestNet(t, Star(2), 2, 3)
	n.send(2, 3, &frame.Discover{TID: 1, Pattern: frame.WellKnownPattern(7)})
	n.run(time.Second)
	got := n.heard[3]
	if len(got) != 1 {
		t.Fatalf("node 3 heard %d frames, want 1", len(got))
	}
	if got[0][offHop] != 1 {
		t.Fatalf("hop count = %d, want 1", got[0][offHop])
	}
	if s := n.in.Stats(); s.FramesForwarded != 1 || s.TTLDrops != 0 || s.UnroutableDrops != 0 {
		t.Fatalf("stats = %+v, want 1 forward and no drops", s)
	}
}

// line3 is a chain of three segments: gateway i bridges segments i and
// i+1, so a frame from segment 0 to segment 2 crosses two gateways.
func line3() Topology {
	return Topology{Segments: 3, Gateways: []GatewaySpec{{Segments: []int{0, 1}}, {Segments: []int{1, 2}}}}
}

// TestMultiHopLine sends across a 3-segment line: two gateway hops, then
// the same route with MaxHops too small for the second hop (TTL drop).
func TestMultiHopLine(t *testing.T) {
	// line3: mid 3 lands on segment 0, mid 5 on segment 2.
	n := newTestNet(t, line3(), 3, 5)
	n.send(3, 5, &frame.Discover{TID: 1, Pattern: frame.WellKnownPattern(7)})
	n.run(time.Second)
	if got := n.heard[5]; len(got) != 1 || got[0][offHop] != 2 {
		t.Fatalf("node 5 heard %v, want one frame at hop count 2", got)
	}
	if s := n.in.Stats(); s.FramesForwarded != 2 {
		t.Fatalf("FramesForwarded = %d, want 2", s.FramesForwarded)
	}

	topo := line3()
	topo.MaxHops = 2
	n2 := newTestNet(t, topo, 3, 5)
	n2.send(3, 5, &frame.Discover{TID: 1, Pattern: frame.WellKnownPattern(7)})
	n2.run(time.Second)
	if len(n2.heard[5]) != 0 {
		t.Fatalf("node 5 heard %d frames despite MaxHops=2", len(n2.heard[5]))
	}
	if s := n2.in.Stats(); s.TTLDrops != 1 || s.FramesForwarded != 1 {
		t.Fatalf("stats = %+v, want 1 forward then 1 TTL drop", s)
	}
}

// TestBroadcastSpanningTree floods a non-DISCOVER broadcast from a spoke of
// a 3-segment star and checks every other segment hears it exactly once
// (no duplicate relays, no echo back onto the origin).
func TestBroadcastSpanningTree(t *testing.T) {
	// Star(3): mids 3 (seg 0), 4 (seg 1), 5 (seg 2).
	n := newTestNet(t, Star(3), 3, 4, 5)
	// DiscoverReply is a broadcast-capable datagram the DISCOVER
	// interception leaves alone.
	n.iface[4].Send(frame.BroadcastMID, datagram(4, frame.BroadcastMID,
		&frame.DiscoverReply{TID: 1, Pattern: frame.WellKnownPattern(7)}))
	n.run(time.Second)
	for _, mid := range []frame.MID{3, 5} {
		if len(n.heard[mid]) != 1 {
			t.Fatalf("node %d heard %d copies, want exactly 1", mid, len(n.heard[mid]))
		}
	}
	// The origin must not hear its own broadcast relayed back.
	if len(n.heard[4]) != 0 {
		t.Fatalf("origin heard %d echoes of its own broadcast", len(n.heard[4]))
	}
	if s := n.in.Stats(); s.BroadcastsRelayed != 2 {
		t.Fatalf("BroadcastsRelayed = %d, want 2", s.BroadcastsRelayed)
	}
}

// TestDiscoverProxy checks the cache path end to end: a DISCOVER for an
// advertised remote pattern is answered by the gateway on the asker's
// segment (spoofing the holder's MID), never floods the remote segment,
// hits the cache on re-ask, and the cache is invalidated by unadvertise.
func TestDiscoverProxy(t *testing.T) {
	// Star(2): asker mid 2 on segment 0, holder mid 5 on segment 1.
	n := newTestNet(t, Star(2), 2, 5)
	p := frame.WellKnownPattern(0o42)
	n.in.Observe(core.ObsEvent{Kind: core.ObsAdvertise, Node: 5, Pattern: p})

	ask := func() {
		n.iface[2].Send(frame.BroadcastMID, datagram(2, frame.BroadcastMID,
			&frame.Discover{TID: 9, Pattern: p}))
	}
	ask()
	n.run(time.Second)
	if len(n.heard[5]) != 0 {
		t.Fatalf("holder's segment heard %d frames; the flood should stop at the gateway", len(n.heard[5]))
	}
	if len(n.heard[2]) != 1 {
		t.Fatalf("asker heard %d frames, want 1 proxy reply", len(n.heard[2]))
	}
	f, err := frame.DecodeTransportShared(n.heard[2][0])
	if err != nil {
		t.Fatalf("decode proxy reply: %v", err)
	}
	if f.Src != 5 || f.Dst != 2 {
		t.Fatalf("proxy reply src/dst = %d/%d, want 5/2 (spoofed holder)", f.Src, f.Dst)
	}
	msg, err := frame.Decode(f.Payload)
	if err != nil {
		t.Fatalf("decode payload: %v", err)
	}
	r, ok := msg.(*frame.DiscoverReply)
	if !ok || r.TID != 9 || r.Pattern != p {
		t.Fatalf("payload = %#v, want DiscoverReply{TID:9, Pattern:%v}", msg, p)
	}
	s := n.in.Stats()
	if s.DiscoverMisses != 1 || s.DiscoverHits != 0 || s.ProxyReplies != 1 {
		t.Fatalf("after first ask: %+v, want 1 miss, 0 hits, 1 proxy reply", s)
	}

	ask()
	n.run(2 * time.Second)
	if s := n.in.Stats(); s.DiscoverHits != 1 || s.ProxyReplies != 2 {
		t.Fatalf("after re-ask: %+v, want 1 hit and 2 proxy replies", s)
	}

	// Unadvertise invalidates: the next ask finds no holders and emits
	// nothing.
	n.in.Observe(core.ObsEvent{Kind: core.ObsUnadvertise, Node: 5, Pattern: p})
	ask()
	n.run(3 * time.Second)
	if s := n.in.Stats(); s.CacheInvalidations == 0 || s.ProxyReplies != 2 {
		t.Fatalf("after unadvertise: %+v, want invalidations and no new proxy reply", s)
	}
	if len(n.heard[2]) != 2 {
		t.Fatalf("asker heard %d frames, want 2 (no reply for a dropped pattern)", len(n.heard[2]))
	}
}

// TestDiscoverCacheDisabled checks NoDiscoverCache floods the query like
// any broadcast instead of proxying it.
func TestDiscoverCacheDisabled(t *testing.T) {
	topo := Star(2)
	topo.NoDiscoverCache = true
	n := newTestNet(t, topo, 2, 5)
	p := frame.WellKnownPattern(0o42)
	n.in.Observe(core.ObsEvent{Kind: core.ObsAdvertise, Node: 5, Pattern: p})
	n.iface[2].Send(frame.BroadcastMID, datagram(2, frame.BroadcastMID,
		&frame.Discover{TID: 9, Pattern: p}))
	n.run(time.Second)
	if len(n.heard[5]) != 1 {
		t.Fatalf("remote segment heard %d frames, want the flooded DISCOVER", len(n.heard[5]))
	}
	if s := n.in.Stats(); s.ProxyReplies != 0 || s.BroadcastsRelayed != 1 {
		t.Fatalf("stats = %+v, want a relay and no proxying", s)
	}
}

// TestCrashMidForward crashes the gateway inside its store-and-forward
// delay: the frame dies in the store; after reboot traffic flows again.
func TestCrashMidForward(t *testing.T) {
	topo := Star(2)
	topo.ForwardDelay = 10 * time.Millisecond
	n := newTestNet(t, topo, 2, 3)
	n.send(2, 3, &frame.Discover{TID: 1, Pattern: frame.WellKnownPattern(7)})
	// Crash after the gateway accepted the frame but before the forward
	// timer fires.
	n.k.After(time.Millisecond, func() { n.in.CrashGateway(0) })
	n.run(time.Second)
	if len(n.heard[3]) != 0 {
		t.Fatalf("node 3 heard %d frames through a crashed gateway", len(n.heard[3]))
	}
	// The forward was counted when accepted; the crash ate the emission.
	if s := n.in.Stats(); s.FramesForwarded != 1 {
		t.Fatalf("FramesForwarded = %d, want 1 (accepted before the crash)", s.FramesForwarded)
	}

	n.in.RebootGateway(0)
	n.send(2, 3, &frame.Discover{TID: 2, Pattern: frame.WellKnownPattern(7)})
	n.run(2 * time.Second)
	if len(n.heard[3]) != 1 {
		t.Fatalf("node 3 heard %d frames after reboot, want 1", len(n.heard[3]))
	}
}

// TestNewValidation pins the constructor's topology checks.
func TestNewValidation(t *testing.T) {
	k := sim.New(1)
	cfg := bus.DefaultConfig()
	cases := []struct {
		name string
		topo Topology
	}{
		{"one segment", Topology{Segments: 1}},
		{"segment out of range", Topology{Segments: 2, Gateways: []GatewaySpec{{Segments: []int{0, 2}}}}},
		{"duplicate segment", Topology{Segments: 2, Gateways: []GatewaySpec{{Segments: []int{1, 1}}}}},
		{"single-homed gateway", Topology{Segments: 2, Gateways: []GatewaySpec{{Segments: []int{0}}}}},
	}
	for _, tc := range cases {
		if _, err := New(k, cfg, tc.topo); err == nil {
			t.Errorf("%s: New accepted an invalid topology", tc.name)
		}
	}
}

// TestSegmentOf pins the default and custom locate functions and the
// gateway MID carve-out.
func TestSegmentOf(t *testing.T) {
	n := newTestNet(t, Star(3))
	if s := n.in.SegmentOf(7); s != 1 {
		t.Fatalf("SegmentOf(7) = %d, want 1 (mid %% segments)", s)
	}
	if s := n.in.SegmentOf(GatewayMIDBase); s != -1 {
		t.Fatalf("SegmentOf(gateway) = %d, want -1", s)
	}
	topo := Star(2)
	topo.Locate = func(mid frame.MID) int {
		if mid == 9 {
			return -5 // unlocatable
		}
		return 1
	}
	n2 := newTestNet(t, topo)
	if s := n2.in.SegmentOf(4); s != 1 {
		t.Fatalf("custom Locate ignored: SegmentOf(4) = %d", s)
	}
	if _, err := n2.in.BusFor(9); err == nil {
		t.Fatal("BusFor accepted an unlocatable MID")
	}
}

// TestAccessorsAndResetStats covers the surface plumbing: segment/gateway
// accessors agree with the topology, and ResetStats opens a fresh
// measurement window over the per-attachment shares (bus.Stats contract).
func TestAccessorsAndResetStats(t *testing.T) {
	n := newTestNet(t, Star(3), 3, 4)
	if n.in.Segments() != 3 || n.in.NumGateways() != 2 {
		t.Fatalf("shape: %d segments, %d gateways", n.in.Segments(), n.in.NumGateways())
	}
	for i := 0; i < n.in.NumGateways(); i++ {
		if mid := n.in.GatewayMID(i); mid != GatewayMIDBase+frame.MID(i) {
			t.Fatalf("GatewayMID(%d) = %d", i, mid)
		}
	}
	for s := 0; s < 3; s++ {
		if n.in.Bus(s) == nil {
			t.Fatalf("Bus(%d) is nil", s)
		}
	}
	if b, err := n.in.BusFor(3); err != nil || b != n.in.Bus(0) {
		t.Fatalf("BusFor(3) = %v, %v; want segment 0's bus", b, err)
	}
	n.send(3, 4, &frame.Discover{TID: 1, Pattern: frame.WellKnownPattern(7)})
	n.run(time.Second)
	if s := n.in.Stats(); s.FramesForwarded == 0 {
		t.Fatalf("stats before reset = %+v, want forwards", s)
	}
	n.in.ResetStats()
	if s := n.in.Stats(); s != (Stats{}) {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}
}

// TestStatsReportsAndResetsEveryField is the internetwork half of the
// measurement-window contract (internal/bus/stats_test.go is the bus
// half). It poisons every field of the directory-side counters and of
// every gateway attachment's share by reflection, so a counter added later
// is covered unedited: Stats must report each field summed over all the
// shares, and ResetStats must zero each field of every share.
func TestStatsReportsAndResetsEveryField(t *testing.T) {
	n := newTestNet(t, Star(3))
	shares := []*Stats{&n.in.stats}
	for _, g := range n.in.gateways {
		for i := range g.astats {
			shares = append(shares, &g.astats[i])
		}
	}
	var want Stats
	wv := reflect.ValueOf(&want).Elem()
	for si, s := range shares {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() != reflect.Uint64 {
				t.Fatalf("Stats field %s has kind %v: teach this test how to poison it",
					v.Type().Field(i).Name, v.Field(i).Kind())
			}
			x := uint64(100*(si+1) + i + 1)
			v.Field(i).SetUint(x)
			wv.Field(i).SetUint(wv.Field(i).Uint() + x)
		}
	}

	gv := reflect.ValueOf(n.in.Stats())
	for i := 0; i < gv.NumField(); i++ {
		if got, w := gv.Field(i).Uint(), wv.Field(i).Uint(); got != w {
			t.Errorf("Stats().%s = %d, want %d (the sum over %d shares)",
				gv.Type().Field(i).Name, got, w, len(shares))
		}
	}

	n.in.ResetStats()
	for si, s := range shares {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Uint() != 0 {
				t.Errorf("share %d: %s = %d after ResetStats, want 0",
					si, v.Type().Field(i).Name, v.Field(i).Uint())
			}
		}
	}
}

// TestShardedMatchesSequential is the in-package half of the parallel
// determinism battery: the same cross-segment traffic runs once on a
// single kernel (New) and once on a parallel coordinator's shard kernels
// (NewSharded), and every receiver must hear byte-identical frame
// sequences. This pins the relay's AfterCross staging against the plain
// After path it replaces.
func TestShardedMatchesSequential(t *testing.T) {
	topo := Star(3)
	topo.ForwardDelay = 2 * time.Millisecond
	mids := []frame.MID{3, 4, 5} // one per segment (mid % 3)

	run := func(build func() (*Internet, func())) [][]string {
		in, finish := build()
		heard := make([][][]byte, len(mids))
		ifaces := make([]*bus.Iface, len(mids))
		for i, mid := range mids {
			i := i
			b, err := in.BusFor(mid)
			if err != nil {
				t.Fatal(err)
			}
			iface, err := b.Attach(mid, func(raw []byte) {
				cp := make([]byte, len(raw))
				copy(cp, raw)
				heard[i] = append(heard[i], cp)
			})
			if err != nil {
				t.Fatal(err)
			}
			ifaces[i] = iface
		}
		send := func(i int, dst frame.MID, tid frame.TID) {
			ifaces[i].Send(dst, datagram(mids[i], dst,
				&frame.Discover{TID: tid, Pattern: frame.WellKnownPattern(7)}))
		}
		send(0, 4, 1) // one gateway hop
		send(1, 5, 2) // two hops via the backbone
		send(2, 3, 3)
		send(0, 5, 4)
		send(1, frame.BroadcastMID, 5) // floods the spanning tree
		finish()
		out := make([][]string, len(mids))
		for i, frames := range heard {
			for _, f := range frames {
				out[i] = append(out[i], fmt.Sprintf("%x", f))
			}
		}
		return out
	}

	seq := run(func() (*Internet, func()) {
		k := sim.New(1)
		in, err := New(k, bus.DefaultConfig(), topo)
		if err != nil {
			t.Fatal(err)
		}
		return in, func() {
			if err := k.RunUntil(sim.Time(time.Second)); err != nil {
				t.Fatal(err)
			}
		}
	})
	total := 0
	for _, frames := range seq {
		total += len(frames)
	}
	if total == 0 {
		t.Fatal("sequential run delivered nothing; comparison would prove nothing")
	}
	par := run(func() (*Internet, func()) {
		c := sim.NewCoordinator(1, 3, 2, sim.Time(topo.ForwardDelay))
		in, err := NewSharded(c.Shards(), bus.DefaultConfig(), topo)
		if err != nil {
			t.Fatal(err)
		}
		return in, func() {
			if err := c.RunUntil(sim.Time(time.Second)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sharded delivery diverged:\nseq %v\npar %v", seq, par)
	}
}
