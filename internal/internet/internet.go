// Package internet composes multiple broadcast bus segments into one
// internetwork behind store-and-forward gateways, in the spirit of the HCA
// hybrid architecture: local traffic stays on its segment's serialized
// medium, and only cross-segment frames transit a gateway.
//
// A gateway subscribes on two or more segments through bridge interfaces
// (bus.AttachBridge). Unicast frames whose destination is not attached on
// the sending segment reach every bridge there; the one gateway designated
// by the precomputed routing table forwards the frame toward the
// destination's segment, incrementing a hop count carried in a transport
// header pad byte so routing loops die at MaxHops. Broadcast frames flood
// along a per-origin spanning tree, except DISCOVER queries for client
// patterns: those are answered directly from a pattern directory kept
// coherent by the kernel events (advertise/unadvertise/crash/die
// events), so discovery cost scales with the number of matching servers
// instead of the number of machines on the internetwork.
//
// Everything here runs in simulation context and is fully deterministic:
// routing tables break ties by ascending segment and gateway index, and all
// map iteration goes through sortediter.
package internet

import (
	"fmt"
	"reflect"
	"time"

	"soda/internal/bus"
	"soda/internal/core"
	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
)

// GatewayMIDBase is the first machine id auto-assigned to gateways.
// Node MIDs must stay below it; the range up to BroadcastMID-1 allows
// 511 gateways.
const GatewayMIDBase frame.MID = 0xFE00

// GatewaySpec declares one gateway and the segments it bridges.
type GatewaySpec struct {
	// Segments lists the attached segment ids (at least two, distinct).
	Segments []int
}

// Topology describes a segmented internetwork.
type Topology struct {
	// Segments is the number of bus segments, numbered 0..Segments-1.
	// A value <= 1 means "no internetwork": callers should use a plain
	// bus instead (soda.WithTopology treats it that way).
	Segments int
	// Locate maps a node MID to its home segment. Nil defaults to
	// mid % Segments. Locate must be deterministic and total; a result
	// outside [0, Segments) marks the MID unlocatable (its frames are
	// dropped at gateways, like an unattached MID on a single bus).
	Locate func(frame.MID) int
	// Gateways lists the bridges. Gateway i gets MID GatewayMIDBase+i.
	Gateways []GatewaySpec
	// MaxHops bounds the gateway hops a frame may take; a frame whose
	// hop count would reach MaxHops is dropped (TTL). 0 means 8.
	MaxHops int
	// ForwardDelay is the store-and-forward latency a gateway adds per
	// forwarded frame, on top of the egress segment's own transmission
	// and propagation time. 0 means forward immediately.
	ForwardDelay time.Duration
	// NoDiscoverCache disables the gateways' pattern directory: DISCOVER
	// broadcasts flood the spanning tree like any other broadcast and
	// remote servers answer for themselves (with their own mid-staggered
	// delays — which overrun the asker's discover window on large
	// networks; that contrast is the point of the cache).
	NoDiscoverCache bool
	// ProxyStagger spaces the proxy DiscoverReply datagrams a gateway
	// emits when answering from the directory, standing in for the
	// repliers' own per-mid stagger. 0 means 1ms (the core default).
	ProxyStagger time.Duration
}

// Star returns a hub-and-spoke topology: segment 0 is the backbone and
// gateway i-1 bridges segment i to it, so any cross-segment path is at most
// two gateway hops. Locate is left nil (mid % segments).
func Star(segments int) Topology {
	t := Topology{Segments: segments}
	for i := 1; i < segments; i++ {
		t.Gateways = append(t.Gateways, GatewaySpec{Segments: []int{0, i}})
	}
	return t
}

// Stats counts internetwork-level work. Like bus.Stats, every field
// accumulates from the last ResetStats (or from creation).
type Stats struct {
	// FramesForwarded counts unicast frames a gateway copied onto
	// another segment (each hop counts once).
	FramesForwarded uint64
	// BroadcastsRelayed counts broadcast frames re-emitted onto a
	// segment along the flood spanning tree.
	BroadcastsRelayed uint64
	// TTLDrops counts frames discarded because their hop count reached
	// Topology.MaxHops.
	TTLDrops uint64
	// UnroutableDrops counts unicast frames whose destination segment
	// was unknown or unreachable from the ingress segment.
	UnroutableDrops uint64
	// DiscoverHits counts DISCOVER queries answered from a gateway's
	// per-segment pattern cache; DiscoverMisses counts the ones that had
	// to consult the shared directory first (the answer is then cached).
	DiscoverHits   uint64
	DiscoverMisses uint64
	// ProxyReplies counts DiscoverReply datagrams emitted by gateways on
	// behalf of remote servers.
	ProxyReplies uint64
	// CacheInvalidations counts advertise/unadvertise/crash/die events
	// that flushed cache entries.
	CacheInvalidations uint64
}

// cacheKey scopes a cached DISCOVER answer to the segment that asked:
// the designated-responder set depends on where the query was heard.
type cacheKey struct {
	seg int
	pat frame.Pattern
}

// hop is one routing-table entry: the designated gateway and the segment it
// forwards onto. gw < 0 marks "no route" (and the root's own entry).
type hop struct {
	gw  int
	seg int
}

// Internet is a set of bus segments joined by gateways.
//
// The segshared marker declares this struct cross-segment state: code
// reachable from a gateway's bridge receive path (//lint:segroot) may read
// it — routing tables, the pattern directory — but must not write it. All
// per-event counting lives on the handling gateway (gateway.stats), so a
// future conservative parallel scheduler can run segments concurrently
// without write sharing; the sodavet segshare analyzer enforces this.
//
//lint:segshared
type Internet struct {
	// ks holds the scheduling kernel per segment. Sequentially they are all
	// the same kernel; under soda.WithParallelSim each segment gets its own
	// shard kernel from a sim.Coordinator, and all cross-segment scheduling
	// goes through Kernel.AfterCross (staged to the window barrier) while
	// directory and cache access goes through Kernel.Gated (canonical-order
	// serialization). Both degrade to plain calls on a single kernel.
	ks       []*sim.Kernel
	topo     Topology
	segments []*bus.Bus
	gateways []*gateway
	// parent[r][s] is the BFS tree of segments rooted at r: the gateway
	// and parent segment by which s is reached from r. It serves both
	// directions: unicast frames on segment s toward a node in segment r
	// take parent[r][s] as their next hop, and a broadcast originating
	// in segment r is re-emitted onto s by that same designated gateway.
	parent [][]hop
	// directory is the authoritative pattern→holders map, fed by the
	// kernel events. holders sets are never iterated directly;
	// sortediter orders every walk.
	directory map[frame.Pattern]map[frame.MID]struct{}
	byNode    map[frame.MID]map[frame.Pattern]struct{}
	// stats holds only the directory-side counters (CacheInvalidations),
	// written from the observer feed, never from segment handlers; the
	// per-event counters accumulate on each gateway and Stats() sums them.
	stats Stats
}

// gateway is one store-and-forward bridge across two or more segments.
type gateway struct {
	in   *Internet
	idx  int
	mid  frame.MID
	segs []int
	// ifaces[i] is the bridge interface on segs[i].
	ifaces []*bus.Iface
	cache  map[cacheKey][]frame.MID
	down   bool
	// astats[i] is the counter share of the attachment on segs[i]: a
	// gateway bridges several segments, and under parallel execution each
	// segment's handler runs on its own shard, so the handling attachment —
	// not the gateway as a whole — must own the counters it bumps. Stats()
	// sums the shares deterministically.
	astats []Stats
}

// New builds the segments and gateways of topo on kernel k. Every segment
// bus gets the same physical configuration.
func New(k *sim.Kernel, busCfg bus.Config, topo Topology) (*Internet, error) {
	if topo.Segments < 2 {
		return nil, fmt.Errorf("internet: need at least 2 segments, got %d", topo.Segments)
	}
	ks := make([]*sim.Kernel, topo.Segments)
	for i := range ks {
		ks[i] = k
	}
	return NewSharded(ks, busCfg, topo)
}

// NewSharded builds the internetwork with one scheduling kernel per
// segment, for conservative parallel execution under a sim.Coordinator:
// ks[s] (a coordinator shard) owns segment s's bus and gateway-attachment
// handlers. Passing the same kernel for every slot is exactly New.
func NewSharded(ks []*sim.Kernel, busCfg bus.Config, topo Topology) (*Internet, error) {
	if topo.Segments < 2 {
		return nil, fmt.Errorf("internet: need at least 2 segments, got %d", topo.Segments)
	}
	if len(ks) != topo.Segments {
		return nil, fmt.Errorf("internet: %d kernels for %d segments", len(ks), topo.Segments)
	}
	if topo.MaxHops == 0 {
		topo.MaxHops = 8
	}
	if topo.ProxyStagger == 0 {
		topo.ProxyStagger = time.Millisecond
	}
	if len(topo.Gateways) > int(frame.BroadcastMID-GatewayMIDBase) {
		return nil, fmt.Errorf("internet: %d gateways exceed the MID range", len(topo.Gateways))
	}
	in := &Internet{
		ks:        ks,
		topo:      topo,
		directory: make(map[frame.Pattern]map[frame.MID]struct{}),
		byNode:    make(map[frame.MID]map[frame.Pattern]struct{}),
	}
	for s := 0; s < topo.Segments; s++ {
		in.segments = append(in.segments, bus.New(ks[s], busCfg))
	}
	for gi, spec := range topo.Gateways {
		seen := make(map[int]bool)
		g := &gateway{
			in:    in,
			idx:   gi,
			mid:   GatewayMIDBase + frame.MID(gi),
			cache: make(map[cacheKey][]frame.MID),
		}
		for _, s := range spec.Segments {
			if s < 0 || s >= topo.Segments {
				return nil, fmt.Errorf("internet: gateway %d names segment %d of %d", gi, s, topo.Segments)
			}
			if seen[s] {
				return nil, fmt.Errorf("internet: gateway %d lists segment %d twice", gi, s)
			}
			seen[s] = true
			g.segs = append(g.segs, s)
		}
		if len(g.segs) < 2 {
			return nil, fmt.Errorf("internet: gateway %d bridges %d segment(s), need >= 2", gi, len(g.segs))
		}
		g.astats = make([]Stats, len(g.segs))
		for ai, s := range g.segs {
			ai := ai
			iface, err := in.segments[s].AttachBridge(g.mid, func(raw []byte) {
				g.onFrame(ai, raw)
			})
			if err != nil {
				return nil, fmt.Errorf("internet: gateway %d on segment %d: %w", gi, s, err)
			}
			g.ifaces = append(g.ifaces, iface)
		}
		in.gateways = append(in.gateways, g)
	}
	in.buildRoutes()
	return in, nil
}

// buildRoutes runs one deterministic BFS per root segment over the gateway
// graph, filling parent. Neighbor order is (gateway index, attachment
// order), so equal-length routes always pick the lowest-numbered gateway.
func (in *Internet) buildRoutes() {
	n := in.topo.Segments
	// adj[s] lists (gateway, neighbor segment) pairs in gateway order.
	type edge struct {
		gw  int
		seg int
	}
	adj := make([][]edge, n)
	for gi, g := range in.gateways {
		for _, a := range g.segs {
			for _, b := range g.segs {
				if a != b {
					adj[a] = append(adj[a], edge{gw: gi, seg: b})
				}
			}
		}
	}
	in.parent = make([][]hop, n)
	for root := 0; root < n; root++ {
		p := make([]hop, n)
		for i := range p {
			p[i] = hop{gw: -1, seg: -1}
		}
		queue := []int{root}
		visited := make([]bool, n)
		visited[root] = true
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for _, e := range adj[s] {
				if !visited[e.seg] {
					visited[e.seg] = true
					p[e.seg] = hop{gw: e.gw, seg: s}
					queue = append(queue, e.seg)
				}
			}
		}
		in.parent[root] = p
	}
}

// Segments reports the number of bus segments.
func (in *Internet) Segments() int { return len(in.segments) }

// Bus returns segment s's bus.
func (in *Internet) Bus(s int) *bus.Bus { return in.segments[s] }

// NumGateways reports the number of gateways.
func (in *Internet) NumGateways() int { return len(in.gateways) }

// GatewayMID reports gateway i's machine id (frames it forwards carry this
// id as their wire-level source, which fault plans can match).
func (in *Internet) GatewayMID(i int) frame.MID { return in.gateways[i].mid }

// SegmentOf locates a node MID, or -1 for gateway/broadcast/unlocatable
// ids.
func (in *Internet) SegmentOf(mid frame.MID) int {
	if mid >= GatewayMIDBase {
		return -1
	}
	var s int
	if in.topo.Locate != nil {
		//lint:allow segshare (contract: Locate is a pure, deterministic placement function)
		s = in.topo.Locate(mid)
	} else {
		s = int(mid) % in.topo.Segments
	}
	if s < 0 || s >= in.topo.Segments {
		return -1
	}
	return s
}

// BusFor returns the segment bus a node MID attaches to.
func (in *Internet) BusFor(mid frame.MID) (*bus.Bus, error) {
	s := in.SegmentOf(mid)
	if s < 0 {
		return nil, fmt.Errorf("internet: MID %d has no home segment", mid)
	}
	return in.segments[s], nil
}

// Stats returns the internetwork counters: the per-attachment shares summed
// (in gateway and attachment order, deterministically) plus the
// directory-side counters.
func (in *Internet) Stats() Stats {
	total := in.stats
	for _, g := range in.gateways {
		for i := range g.astats {
			total.add(&g.astats[i])
		}
	}
	return total
}

// add sums every counter of o into s. Reflection walks the fields so the
// sum stays exhaustive as counters are added (as bus.Stats.Add does).
func (s *Stats) add(o *Stats) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		f.SetUint(f.Uint() + ov.Field(i).Uint())
	}
}

// ResetStats zeroes every counter by replacing the whole Stats values (see
// the measurement-window contract on bus.Stats).
func (in *Internet) ResetStats() {
	in.stats = Stats{}
	for _, g := range in.gateways {
		for i := range g.astats {
			g.astats[i] = Stats{}
		}
	}
}

// CrashGateway takes gateway i off every attached segment: it stops
// hearing frames, forwards nothing (frames inside its store-and-forward
// delay are lost), and drops its cache.
func (in *Internet) CrashGateway(i int) {
	g := in.gateways[i]
	g.down = true
	for _, iface := range g.ifaces {
		iface.Down()
	}
	g.cache = make(map[cacheKey][]frame.MID)
}

// RebootGateway reattaches a crashed gateway. Its cache restarts cold and
// refills from the directory on demand.
func (in *Internet) RebootGateway(i int) {
	g := in.gateways[i]
	g.down = false
	for _, iface := range g.ifaces {
		iface.Up()
	}
}

// Observe feeds one kernel observer event into the pattern directory. The
// caller (soda.Network) subscribes it to the kernel events; the
// directory models the advertise/crash bookkeeping a real gateway would
// learn from its segment's broadcasts.
func (in *Internet) Observe(ev core.ObsEvent) {
	switch ev.Kind {
	case core.ObsAdvertise:
		holders := in.directory[ev.Pattern]
		if holders == nil {
			holders = make(map[frame.MID]struct{})
			in.directory[ev.Pattern] = holders
		}
		holders[ev.Node] = struct{}{}
		pats := in.byNode[ev.Node]
		if pats == nil {
			pats = make(map[frame.Pattern]struct{})
			in.byNode[ev.Node] = pats
		}
		pats[ev.Pattern] = struct{}{}
		in.invalidate(ev.Pattern)
	case core.ObsUnadvertise:
		if holders := in.directory[ev.Pattern]; holders != nil {
			delete(holders, ev.Node)
			if len(holders) == 0 {
				delete(in.directory, ev.Pattern)
			}
		}
		if pats := in.byNode[ev.Node]; pats != nil {
			delete(pats, ev.Pattern)
		}
		in.invalidate(ev.Pattern)
	case core.ObsCrash, core.ObsDie:
		pats := in.byNode[ev.Node]
		if len(pats) == 0 {
			return
		}
		delete(in.byNode, ev.Node)
		for _, p := range sortediter.Keys(pats) {
			if holders := in.directory[p]; holders != nil {
				delete(holders, ev.Node)
				if len(holders) == 0 {
					delete(in.directory, p)
				}
			}
			in.invalidate(p)
		}
	}
}

// invalidate flushes every cached answer for pattern p, on every gateway
// and ingress segment.
func (in *Internet) invalidate(p frame.Pattern) {
	in.stats.CacheInvalidations++
	for _, g := range in.gateways {
		for _, s := range g.segs {
			delete(g.cache, cacheKey{seg: s, pat: p})
		}
	}
}

// wire-format offsets a gateway reads without a full decode: the transport
// header is kind(1) src(2) dst(2) ... with three pad bytes at 13..15; byte
// 13 is repurposed as the hop count (origin endpoints always write zero, so
// a single-segment network's wire bytes are untouched, and decoders ignore
// pad bytes entirely).
const (
	offSrc = 1
	offDst = 3
	offHop = 13

	minFrame = 16
)

// onFrame is the bridge receive path: decide whether this gateway is the
// designated forwarder and relay accordingly.
//
// The segroot marker makes this the segshare analyzer's entry point:
// everything reachable from here may read the shared Internet but writes
// only this gateway's own state, and emits frames only through the
// deferred //lint:segqueue closures.
//
//lint:segroot
func (g *gateway) onFrame(ai int, raw []byte) {
	if g.down || len(raw) < minFrame {
		return
	}
	in := g.in
	ingress, st := g.segs[ai], &g.astats[ai]
	src := frame.MID(uint16(raw[offSrc])<<8 | uint16(raw[offSrc+1]))
	dst := frame.MID(uint16(raw[offDst])<<8 | uint16(raw[offDst+1]))
	if dst == frame.BroadcastMID {
		g.onBroadcast(ingress, st, src, raw)
		return
	}
	dseg := in.SegmentOf(dst)
	if dseg < 0 || dseg == ingress {
		// Unlocatable destination, or a local frame every bridge hears
		// because the destination node was never attached (e.g. it is
		// simply absent); either way there is nowhere to route.
		if dseg < 0 {
			st.UnroutableDrops++
		}
		return
	}
	next := in.parent[dseg][ingress]
	if next.gw < 0 {
		st.UnroutableDrops++
		return
	}
	if next.gw != g.idx {
		return // another gateway on this segment is designated
	}
	g.relay(ingress, next.seg, dst, raw, st, &st.FramesForwarded)
}

// relay copies raw (the bus shares delivery buffers, so the hop count must
// never be bumped in place), increments the hop byte, and re-emits the
// frame on segment egress after the store-and-forward delay. The deferred
// send is scheduled through AfterCross: sequentially that is plain After on
// the one kernel; under a parallel coordinator it stages the send to the
// egress shard at the window barrier, which is sound exactly because the
// delay is at least the coordinator's ForwardDelay lookahead.
func (g *gateway) relay(ingress, egress int, dst frame.MID, raw []byte, st *Stats, counter *uint64) {
	in := g.in
	hops := int(raw[offHop])
	if hops+1 >= in.topo.MaxHops {
		st.TTLDrops++
		return
	}
	buf := make([]byte, len(raw))
	copy(buf, raw)
	buf[offHop] = byte(hops + 1)
	*counter++
	iface := g.ifaceOn(egress)
	in.ks[ingress].AfterCross(in.ks[egress], in.topo.ForwardDelay, func() {
		if g.down {
			return // crashed mid-forward: the frame dies in the store
		}
		iface.Send(dst, buf)
	})
}

// ifaceOn returns the bridge interface attached to segment s.
func (g *gateway) ifaceOn(s int) *bus.Iface {
	for i, seg := range g.segs {
		if seg == s {
			return g.ifaces[i]
		}
	}
	panic(fmt.Sprintf("internet: gateway %d not attached to segment %d", g.idx, s))
}

// onBroadcast relays a broadcast along the spanning tree rooted at the
// origin's segment, except client-pattern DISCOVER queries, which the
// directory answers without flooding.
func (g *gateway) onBroadcast(ingress int, st *Stats, src frame.MID, raw []byte) {
	in := g.in
	origin := in.SegmentOf(src)
	if origin < 0 {
		return // gateways do not re-flood each other's relays by MID design
	}
	if !in.topo.NoDiscoverCache && frame.TransportKind(raw[0]) == frame.TransportDatagram {
		if f, err := frame.DecodeTransportShared(raw); err == nil {
			if msg, err := frame.Decode(f.Payload); err == nil {
				if d, ok := msg.(*frame.Discover); ok && !d.Pattern.Reserved() {
					g.answerDiscover(ingress, st, src, d)
					return
				}
			}
		}
	}
	// Tree flood: re-emit onto every attached segment whose tree parent
	// (for this origin) is this gateway on this ingress.
	for _, s := range g.segs {
		if s == ingress {
			continue
		}
		p := in.parent[origin][s]
		if p.gw == g.idx && p.seg == ingress {
			g.relay(ingress, s, frame.BroadcastMID, raw, st, &st.BroadcastsRelayed)
		}
	}
}

// answerDiscover serves a client-pattern DISCOVER from the directory: the
// gateway emits DiscoverReply datagrams on the asker's segment on behalf of
// every remote holder it is designated to represent (local holders heard
// the broadcast themselves and reply on their own). The flood stops here —
// that is the cache's entire point — so discovery traffic on other segments
// is zero.
func (g *gateway) answerDiscover(ingress int, st *Stats, asker frame.MID, d *frame.Discover) {
	in := g.in
	// The shared directory and this gateway's cache (which invalidate()
	// flushes from other segments' observer events) are globally sequenced
	// state: under parallel execution the whole lookup runs through the
	// order gate so it reads exactly the directory a sequential run would
	// see at this instant. Sequentially, Gated is a direct call.
	var remotes []frame.MID
	//lint:allow segshare (gate: directory and cache access is serialized in canonical order by the parallel coordinator's order gate)
	in.ks[ingress].Gated(func() {
		key := cacheKey{seg: ingress, pat: d.Pattern}
		var ok bool
		remotes, ok = g.cache[key]
		if ok {
			st.DiscoverHits++
			return
		}
		st.DiscoverMisses++
		for _, m := range sortediter.Keys(in.directory[d.Pattern]) {
			hseg := in.SegmentOf(m)
			if hseg < 0 || hseg == ingress {
				continue
			}
			next := in.parent[hseg][ingress]
			if next.gw == g.idx {
				remotes = append(remotes, m)
			}
		}
		g.cache[key] = remotes
	})
	if len(remotes) == 0 {
		return
	}
	iface := g.ifaceOn(ingress)
	for i, m := range remotes {
		reply := &frame.TransportFrame{
			Kind:    frame.TransportDatagram,
			Src:     m,
			Dst:     asker,
			Payload: frame.Encode(&frame.DiscoverReply{TID: d.TID, Pattern: d.Pattern}),
		}
		buf := frame.EncodeTransport(reply)
		st.ProxyReplies++
		// delay >= ForwardDelay keeps the reply outside the lookahead
		// window, so the same-segment send stages cleanly at the barrier.
		delay := in.topo.ForwardDelay + time.Duration(i+1)*in.topo.ProxyStagger
		in.ks[ingress].After(delay, func() {
			if g.down {
				return
			}
			iface.Send(asker, buf)
		})
	}
}
