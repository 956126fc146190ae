// Package netx is the real-socket backend behind the kernel API: the same
// Delta-t transport frames the simulator exchanges over its broadcast bus,
// carried over length-prefixed TCP streams between OS processes. A Network
// owns one sim.Kernel and drives it in real time — virtual time is mapped
// onto the wall clock from the moment Start is called — so the transport's
// timers (retransmission, Δt record reclamation, peer-death) fire at their
// configured spacing on the wall.
//
// Everything above the wire.Network seam is byte-for-byte the simulator's
// code path; netx replaces only the medium. Delivery keeps the bus's
// contract: unreliable, fire-and-forget. A frame sent while the peer's
// connection is down (or its queue is full) is dropped, exactly like a
// lossy bus window, and the Delta-t machinery recovers by retransmission.
//
// Concurrency model: socket goroutines (one accept loop, one dial/write
// loop per peer address, one reader per connection) touch only channels
// and the connection table; the kernel is touched exclusively by the
// driver goroutine, which alternates between advancing the kernel to the
// current wall position and draining received frames into it. The package
// is a declared real-time zone (see lint/zone.go): it is the one place the
// wall clock and raw concurrency are the point, and the determinism story
// is delegated to the sim oracle through the conformance harness.
package netx

//lint:zone realtime (socket backend: wall-clock pacing and socket goroutines are the point; determinism is cross-checked against the sim oracle by the conformance harness)

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soda/internal/bus"
	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
	"soda/internal/wire"
)

// Config parameterizes a socket-backed network.
type Config struct {
	// Listen is the TCP listen address; ":0" picks an ephemeral port
	// (read it back with Addr).
	Listen string
	// Peers maps remote machine ids to their listen addresses. Several
	// MIDs may share one address (a process hosting several nodes gets
	// one connection). Extendable after creation with SetPeer.
	Peers map[frame.MID]string
	// RedialInterval spaces reconnect attempts after a dial failure or a
	// broken connection (default 50ms).
	RedialInterval time.Duration
	// MaxFrame caps a received frame's declared length (default
	// MaxFrameLen).
	MaxFrame int
	// SendQueue bounds each peer's in-flight write queue in frames
	// (default 256); a full queue drops like a lossy wire.
	SendQueue int
	// DrainTimeout bounds Close's wait for socket goroutines to exit
	// before reporting a leak (default 2s).
	DrainTimeout time.Duration
}

func (c *Config) fill() {
	if c.RedialInterval <= 0 {
		c.RedialInterval = 50 * time.Millisecond
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = MaxFrameLen
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 256
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
}

// peer is one remote listen address: a dial/write loop owns its connection
// and drains outq onto it.
type peer struct {
	addr string
	outq chan []byte
}

// Network is a socket-backed frame medium plus the real-time driver for
// the kernel attached to it. It implements wire.Network.
type Network struct {
	k   *sim.Kernel
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	links  map[frame.MID]*link
	peers  map[frame.MID]*peer // routing: remote MID -> its address's peer
	byAddr map[string]*peer    // one dial loop per distinct address
	conns  map[net.Conn]bool   // every live conn, force-closed on Close
	closed bool

	inbox  chan []byte
	posted chan func()
	stop   chan struct{}

	started    bool
	driverDone chan struct{}
	driverErr  error // driver-goroutine kernel error; read after driverDone
	epoch      time.Time

	// lastActivity is the wall time (epoch nanos) of the last frame sent
	// or received; WaitIdle's quiescence test reads it.
	lastActivity atomic.Int64

	wg sync.WaitGroup // accept loop + readers + peer loops

	statsMu sync.Mutex
	stats   bus.Stats

	// hooks emit the wire events, as on the simulated bus; set before
	// Start and read only on the driver goroutine.
	hooks bus.Hooks
}

// New opens the listen socket and starts the accept loop. The kernel must
// not be driven by anyone else from here on: Start's driver goroutine owns
// it.
func New(k *sim.Kernel, cfg Config) (*Network, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netx: listen %q: %w", cfg.Listen, err)
	}
	n := &Network{
		k:          k,
		cfg:        cfg,
		ln:         ln,
		links:      make(map[frame.MID]*link),
		peers:      make(map[frame.MID]*peer),
		byAddr:     make(map[string]*peer),
		conns:      make(map[net.Conn]bool),
		inbox:      make(chan []byte, 1024),
		posted:     make(chan func(), 64),
		stop:       make(chan struct{}),
		driverDone: make(chan struct{}),
	}
	n.stats.ByKind = make(map[frame.TransportKind]uint64)
	n.touch()
	for _, mid := range sortediter.Keys(cfg.Peers) {
		n.SetPeer(mid, cfg.Peers[mid])
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// SetHooks installs the medium's event hooks (the zero Hooks disables
// them), the bus's counterpart: one transmit event per send, one delivery
// event per handoff to a local link. Call it before Start.
func (n *Network) SetHooks(h bus.Hooks) { n.hooks = h }

// Addr reports the bound listen address (resolving ":0").
func (n *Network) Addr() string { return n.ln.Addr().String() }

// Attach registers mid's frame sink (wire.Network).
func (n *Network) Attach(mid frame.MID, recv func(raw []byte)) (wire.Iface, error) {
	if mid == frame.BroadcastMID {
		return nil, fmt.Errorf("netx: cannot attach the broadcast MID")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.links[mid]; dup {
		return nil, fmt.Errorf("netx: MID %d already attached", mid)
	}
	l := &link{n: n, mid: mid, recv: recv, up: true}
	n.links[mid] = l
	return l, nil
}

// SetPeer routes the remote machine mid through addr, starting a dial loop
// for addr if this is its first MID. Safe before and during a run.
func (n *Network) SetPeer(mid frame.MID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	p := n.byAddr[addr]
	if p == nil {
		p = &peer{addr: addr, outq: make(chan []byte, n.cfg.SendQueue)}
		n.byAddr[addr] = p
		n.wg.Add(1)
		go n.peerLoop(p)
	}
	n.peers[mid] = p
}

// acceptLoop admits inbound connections until the listener closes; each
// gets a reader that feeds the shared inbox.
func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.track(c) {
			return
		}
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

// track registers a live connection for force-close; false after Close.
func (n *Network) track(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return false
	}
	n.conns[c] = true
	return true
}

func (n *Network) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
	c.Close()
}

// readLoop decodes length-prefixed frames off one connection into the
// inbox until the stream breaks (framing errors drop the connection — the
// record boundaries are gone — and the peer's dial loop reconnects).
func (n *Network) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer n.untrack(c)
	br := bufio.NewReader(c)
	for {
		raw, err := ReadFrame(br, n.cfg.MaxFrame)
		if err != nil {
			return
		}
		n.touch()
		select {
		case n.inbox <- raw:
		case <-n.stop:
			return
		}
	}
}

// peerLoop owns one remote address: dial, then drain the write queue onto
// the connection; on any failure, redial after RedialInterval. Frames
// arriving while disconnected are dropped by the sender (send below), not
// queued here — wire-loss semantics.
func (n *Network) peerLoop(p *peer) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		d := net.Dialer{Timeout: n.cfg.RedialInterval}
		c, err := d.Dial("tcp", p.addr)
		if err != nil {
			t := time.NewTimer(n.cfg.RedialInterval)
			select {
			case <-n.stop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		if !n.track(c) {
			return
		}
		// The remote may answer on this stream rather than dialing back;
		// read it like any inbound connection.
		n.wg.Add(1)
		go n.readLoop(c)
		if !n.writeLoop(p, c) {
			return
		}
	}
}

// writeLoop drains p.outq onto c until the connection or the network dies;
// false means the network is stopping.
func (n *Network) writeLoop(p *peer, c net.Conn) bool {
	for {
		select {
		case <-n.stop:
			return false
		case raw := <-p.outq:
			if err := WriteFrame(c, raw); err != nil {
				n.untrack(c)
				n.countLost(1)
				return true // redial
			}
			n.touch()
		}
	}
}

// send routes one encoded frame from a local link: local destinations
// loop back through the kernel at the current virtual time, remote ones
// enqueue toward their peer address, unknown ones drop. Runs on the driver
// goroutine (kernel context).
func (n *Network) send(from *link, dst frame.MID, raw []byte) {
	kind := kindOf(raw)
	n.statsMu.Lock()
	n.stats.FramesSent++
	n.stats.BytesSent += uint64(len(raw))
	n.stats.ByKind[kind]++
	n.statsMu.Unlock()
	n.touch()
	if n.hooks.Transmit != nil {
		n.hooks.Transmit(bus.TapEvent{At: n.k.Now(), Src: from.mid, Dst: dst, Kind: kind, Size: len(raw)})
	}
	if dst == frame.BroadcastMID {
		n.mu.Lock()
		locals := make([]*link, 0, len(n.links))
		for _, mid := range sortediter.Keys(n.links) {
			if l := n.links[mid]; l != from {
				locals = append(locals, l)
			}
		}
		addrs := sortediter.Keys(n.byAddr)
		remotes := make([]*peer, 0, len(addrs))
		for _, a := range addrs {
			remotes = append(remotes, n.byAddr[a])
		}
		n.mu.Unlock()
		for _, l := range locals {
			n.loopback(from.mid, l, raw)
		}
		for _, p := range remotes {
			n.enqueue(p, raw)
		}
		return
	}
	n.mu.Lock()
	l := n.links[dst]
	p := n.peers[dst]
	n.mu.Unlock()
	switch {
	case l != nil:
		n.loopback(from.mid, l, raw)
	case p != nil:
		n.enqueue(p, raw)
	default:
		n.countLost(1) // no route: dropped on the floor, like a dead drop cable
	}
}

// loopback delivers to a co-hosted link through the kernel, preserving the
// bus's asynchrony (the receive path runs as its own kernel event).
func (n *Network) loopback(src frame.MID, l *link, raw []byte) {
	n.k.At(n.k.Now(), func() { n.handoff(src, l, raw) })
}

// handoff gives one frame from src to the local link l, in kernel
// context: a down link drops it; otherwise it is counted and emitted
// before l's receive runs, the bus's order.
func (n *Network) handoff(src frame.MID, l *link, raw []byte) {
	n.statsMu.Lock()
	if l.up {
		n.stats.FramesDelivered++
	} else {
		n.stats.FramesDroppedDown++
	}
	n.statsMu.Unlock()
	if !l.up {
		return
	}
	if n.hooks.Delivery != nil {
		n.hooks.Delivery(bus.DeliveryEvent{At: n.k.Now(), Src: src, Dst: l.mid, Raw: raw})
	}
	l.recv(raw)
}

// enqueue hands a frame to the peer's writer, dropping when the queue is
// full or the writer is between connections and the queue backs up.
func (n *Network) enqueue(p *peer, raw []byte) {
	select {
	case p.outq <- raw:
	default:
		n.countLost(1)
	}
}

func (n *Network) countLost(k uint64) {
	n.statsMu.Lock()
	n.stats.FramesLost += k
	n.statsMu.Unlock()
}

// kindOf reads the transport kind byte for ByKind attribution.
func kindOf(raw []byte) frame.TransportKind {
	if len(raw) == 0 {
		return 0
	}
	return frame.TransportKind(raw[0])
}

// frameAddrs reads the source and destination MIDs from an encoded
// transport frame (header bytes 1..2 and 3..4); false for runts.
func frameAddrs(raw []byte) (src, dst frame.MID, ok bool) {
	if len(raw) < minFrameLen {
		return 0, 0, false
	}
	return frame.MID(binary.BigEndian.Uint16(raw[1:3])), frame.MID(binary.BigEndian.Uint16(raw[3:5])), true
}

// touch stamps the activity clock (WaitIdle's quiescence test).
func (n *Network) touch() { n.lastActivity.Store(time.Now().UnixNano()) }

// Stats snapshots the medium counters (bus.Stats shaped, so Network.Stats
// reads the same on either backend).
func (n *Network) Stats() bus.Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	out := n.stats
	out.ByKind = make(map[frame.TransportKind]uint64, len(n.stats.ByKind))
	for _, k := range sortediter.Keys(n.stats.ByKind) {
		out.ByKind[k] = n.stats.ByKind[k]
	}
	return out
}

// ResetStats zeroes the medium counters (measurement windows).
func (n *Network) ResetStats() {
	n.statsMu.Lock()
	n.stats = bus.Stats{ByKind: make(map[frame.TransportKind]uint64)}
	n.statsMu.Unlock()
}

// Start launches the real-time driver: virtual time 0 is pinned to the
// wall clock now, and the kernel is advanced in step with it. done, when
// non-nil, is polled between events on the driver goroutine (it may read
// kernel-owned state); the driver parks when it reports true. Start is
// idempotent; only the first call's predicate is used.
func (n *Network) Start(done func() bool) {
	n.mu.Lock()
	if n.started || n.closed {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.epoch = time.Now()
	go n.drive(done)
}

// maxNap bounds driver sleeps so the done predicate and stop signal are
// polled even on an idle network.
const maxNap = 25 * time.Millisecond

// drive is the driver loop: advance the kernel to the wall position, drain
// received frames into it, then sleep until the earlier of the next event
// and new input.
func (n *Network) drive(done func() bool) {
	defer close(n.driverDone)
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		if err := n.k.RunUntil(time.Since(n.epoch)); err != nil {
			n.driverErr = err
			return
		}
		if n.drainInbox() {
			continue // deliveries scheduled; run them before sleeping
		}
		if done != nil && done() {
			return
		}
		nap := maxNap
		if next, ok := n.k.PeekNext(); ok {
			if until := time.Until(n.epoch.Add(next)); until <= 0 {
				continue
			} else if until < nap {
				nap = until
			}
		}
		t := time.NewTimer(nap)
		select {
		case <-n.stop:
			t.Stop()
			return
		case raw := <-n.inbox:
			t.Stop()
			n.deliver(raw)
		case fn := <-n.posted:
			t.Stop()
			fn()
		case <-t.C:
		}
	}
}

// Post schedules fn onto the driver goroutine in kernel context: the one
// safe way to read (or mutate) kernel-owned state while the driver runs.
// It blocks until the driver accepts it and reports false if the network
// stops first; an accepted fn runs unless the driver exits before its
// turn.
func (n *Network) Post(fn func()) bool {
	select {
	case n.posted <- fn:
		return true
	case <-n.stop:
		return false
	case <-n.driverDone:
		return false
	}
}

// drainInbox moves every queued received frame into the kernel; true if
// any arrived.
func (n *Network) drainInbox() bool {
	any := false
	for {
		select {
		case raw := <-n.inbox:
			n.deliver(raw)
			any = true
		case fn := <-n.posted:
			fn()
			any = true
		default:
			return any
		}
	}
}

// deliver hands one received frame to its destination link (broadcasts to
// every local link), from the driver goroutine in kernel context.
func (n *Network) deliver(raw []byte) {
	src, dst, ok := frameAddrs(raw)
	if !ok {
		n.statsMu.Lock()
		n.stats.FramesCorrupted++
		n.statsMu.Unlock()
		return
	}
	n.mu.Lock()
	targets := make([]*link, 0, 1)
	if dst == frame.BroadcastMID {
		for _, mid := range sortediter.Keys(n.links) {
			targets = append(targets, n.links[mid])
		}
	} else if l := n.links[dst]; l != nil {
		targets = append(targets, l)
	}
	n.mu.Unlock()
	for _, l := range targets {
		n.handoff(src, l, raw)
	}
}

// Err reports the driver's terminal kernel error, if any; read it after
// Wait or Close.
func (n *Network) Err() error { return n.driverErr }

// Wait blocks until the driver parks (done predicate satisfied, Close, or
// a kernel error), or max elapses; true means it parked.
func (n *Network) Wait(max time.Duration) bool {
	t := time.NewTimer(max)
	defer t.Stop()
	select {
	case <-n.driverDone:
		return true
	case <-t.C:
		return false
	}
}

// WaitIdle blocks until no frame has been sent or received for settle
// (quiescence, measured on the wall activity clock), or until max elapses;
// true means quiescent. Deadline-based by construction — callers never
// guess a sleep.
func (n *Network) WaitIdle(settle, max time.Duration) bool {
	deadline := time.Now().Add(max)
	for {
		last := time.Unix(0, n.lastActivity.Load())
		quiet := time.Since(last)
		if quiet >= settle {
			return true
		}
		now := time.Now()
		if !now.Before(deadline) {
			return false
		}
		nap := settle - quiet
		if rem := deadline.Sub(now); rem < nap {
			nap = rem
		}
		t := time.NewTimer(nap)
		select {
		case <-n.driverDone:
			t.Stop()
			return true // driver parked; nothing more will move
		case <-t.C:
		}
	}
}

// RunFor drives the network for a wall-clock duration, then parks the
// driver (connections stay open until Close). Convenience for the CLI's
// bounded runs; returns the driver's terminal error, if any.
func (n *Network) RunFor(d time.Duration) error {
	deadline := time.Now().Add(d)
	n.Start(func() bool { return !time.Now().Before(deadline) })
	n.Wait(d + time.Second)
	return n.driverErr
}

// Close stops the driver, closes the listener and every connection, and
// waits for all socket goroutines to drain. A non-nil error means a
// goroutine failed to exit within DrainTimeout — the leak check every
// socket test asserts on.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.ln.Close()
	//lint:allow mapiterorder (close-order of live sockets is unobservable; net.Conn keys have no order)
	for c := range n.conns {
		c.Close()
	}
	started := n.started
	n.mu.Unlock()

	drained := make(chan struct{})
	go func() { n.wg.Wait(); close(drained) }()
	t := time.NewTimer(n.cfg.DrainTimeout)
	defer t.Stop()
	if started {
		select {
		case <-n.driverDone:
		case <-t.C:
			return fmt.Errorf("netx: driver failed to stop within %v", n.cfg.DrainTimeout)
		}
	}
	select {
	case <-drained:
		return nil
	case <-t.C:
		return fmt.Errorf("netx: socket goroutines failed to drain within %v", n.cfg.DrainTimeout)
	}
}
