package core

import (
	"fmt"
	//lint:allow nogoroutine (the pattern-table counter is read like the transport ledger: atomic adds neither block nor order kernel work)
	"sync/atomic"

	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/wire"
)

// Program is the client software loaded onto a node: the three sections of
// a SODAL program (§4.1). Init runs first (the BOOTING handler invocation);
// Handler services request arrivals and completions; Task is the main locus
// of control. Die is implicit when Task returns.
type Program struct {
	Init    func(c *Client, parent frame.MID)
	Handler func(c *Client, ev Event)
	Task    func(c *Client)
}

// Registry maps program names to Programs. The boot protocol's "core image"
// (§3.5.2) is, in this reproduction, the name of a registered program — see
// DESIGN.md for the substitution rationale.
type Registry map[string]Program

// outRequest is the requester kernel's record of an uncompleted REQUEST.
type outRequest struct {
	tid     frame.TID
	dst     frame.ServerSig
	arg     int32
	getSize int
	// req is the REQUEST message, kept here so encoding it allocates only
	// the wire bytes. Once encoded, req.Data is the kernel's copy of the put
	// data: a view of the encoding's data region.
	req       frame.Request
	delivered bool // acknowledged by the server kernel
	// cancel coordination
	cancelWaiter *sim.Proc // client blocked in CANCEL awaiting delivery state
	// probe state
	probeGen   int
	probeFails int
	// discover state (broadcast requests only)
	discover    bool
	discovered  []frame.MID
	discoverGen int
}

// inRequest is the server kernel's record of a delivered REQUEST (§3.3.2).
type inRequest struct {
	sig     frame.RequesterSig
	pattern frame.Pattern
	arg     int32
	putSize int
	getSize int
	hasData bool
	data    []byte // requester's put data, if it survived delivery
	// acked reports that the REQUEST's acknowledgement has been sent
	// (the accept can no longer piggyback on it).
	acked     bool
	accepting bool
	// accept-in-progress bookkeeping
	acceptWaiter *sim.Proc
	acceptOut    bool // the Accept message completed its handshake
	needData     bool // awaiting an AcceptData message
	gotData      []byte
	gotDataOK    bool
	failStatus   AcceptStatus // non-zero: the accept failed
	timeoutGen   int
	// acc is the ACCEPT message, kept here so encoding it allocates only
	// the wire bytes.
	acc frame.Accept
}

// heldInput is the pipelined kernel's parked REQUEST (§5.2.3).
type heldInput struct {
	src frame.MID
	req *frame.Request
	gen int
}

// Node is one SODA machine: the kernel processor, its transport endpoint,
// and (optionally) a client process.
type Node struct {
	k        *sim.Kernel
	mid      frame.MID
	cfg      Config
	ep       *deltat.Endpoint
	registry Registry

	// Naming state (§3.4).
	patterns  [256]patternSlot // client patterns, 8-bit-indexed (§5.4)
	bootPats  map[frame.Pattern]bool
	killPat   frame.Pattern
	loadPat   frame.Pattern // zero when no boot in progress / client load pattern
	bootImage []byte

	// Id generation (§5.4).
	serial     uint8
	uidCounter uint32
	tidCounter uint64
	tidFloor   uint64 // TIDs below this predate the last crash/DIE

	// Requester side.
	outstanding map[frame.TID]*outRequest

	// Server side.
	delivered map[frame.RequesterSig]*inRequest
	heldIn    *heldInput
	acceptGen int // bumped on reset; invalidates accept-window timers

	// rmrMemory is the kernel-level RMR region (§6.17.2); nil when the
	// service is disabled.
	rmrMemory []byte

	// tableFull counts AdvertiseUnique calls the saturated pattern table
	// rejected; atomic like the endpoint's ledger it is reported beside.
	tableFull atomic.Uint64

	client *Client
	totals CostTotals
	epoch  int // bumped on crash/DIE; stale timers check it
	// free recycles the records of scheduled kernel actions (see pending).
	free []*pending
}

// pendingKind names the action a pending record performs.
type pendingKind uint8

const (
	pendingRequestSent  pendingKind = iota + 1 // the transport outcome of a REQUEST message
	pendingAcceptSent                          // the transport outcome of an ACCEPT message
	pendingAcceptWindow                        // the accept-window timer of a delivered REQUEST
	pendingProbe                               // the probe timer of a delivered, unaccepted REQUEST
)

// pending is a scheduled kernel action of the REQUEST round trip: a timer,
// scheduled with fire, or a send completion, handed to the transport as
// sent. Records live on their node's freelist: both funcs are bound once
// when a record is first allocated, the action's state lives in the
// fields, and a record goes back to the freelist as it fires. Every action
// is dropped if the node crashed or died since it was scheduled (epoch).
// A send whose endpoint crashes never completes; its record is dropped
// with it.
type pending struct {
	n     *Node
	fire  func()
	sent  func(deltat.Result)
	kind  pendingKind
	epoch int
	gen   int // the request's probe or accept-window generation
	o     *outRequest
	in    *inRequest
}

// newPending takes a pending record from the freelist, or allocates one.
func (n *Node) newPending(kind pendingKind) *pending {
	var r *pending
	if k := len(n.free); k > 0 {
		r = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		//lint:allow noalloc (amortized: one record per new peak of pending kernel actions)
		r = &pending{n: n}
		//lint:allow noalloc (amortized: bound once per record; the record is reused)
		r.fire = r.run
		//lint:allow noalloc (amortized: bound once per record; the record is reused)
		r.sent = r.done
	}
	r.kind, r.epoch = kind, n.epoch
	return r
}

// run fires a timer record.
//
//lint:hotpath
func (r *pending) run() { r.done(deltat.Result{}) }

// done performs the record's action, with res the outcome of a send. The
// record is back on the freelist before the action runs.
//
//lint:hotpath
func (r *pending) done(res deltat.Result) {
	n, kind, epoch, gen, o, in := r.n, r.kind, r.epoch, r.gen, r.o, r.in
	r.o, r.in = nil, nil
	//lint:allow noalloc (amortized: the freelist grows to the peak number of pending kernel actions)
	n.free = append(n.free, r)
	if epoch != n.epoch {
		return
	}
	switch kind {
	case pendingRequestSent:
		n.requestSendDone(o, res)
	case pendingAcceptSent:
		n.acceptSendDone(in, res)
	case pendingAcceptWindow:
		n.closeAcceptWindow(in, gen)
	case pendingProbe:
		n.probe(o, gen)
	}
}

type patternSlot struct {
	pat    frame.Pattern
	active bool
}

// NewNode attaches a SODA kernel to a frame-carrying medium at mid —
// the simulated bus (bus.Bus.Wire) or the socket backend. registry
// supplies the bootable programs; it may be shared across nodes.
func NewNode(k *sim.Kernel, w wire.Network, mid frame.MID, cfg Config, registry Registry) (*Node, error) {
	if cfg.MaxRequests <= 0 {
		cfg.MaxRequests = 3
	}
	if cfg.AcceptWindow <= 0 {
		cfg.AcceptWindow = cfg.Transport.A
	}
	n := &Node{
		k:           k,
		mid:         mid,
		cfg:         cfg,
		registry:    registry,
		bootPats:    map[frame.Pattern]bool{DefaultBootPattern: true},
		killPat:     DefaultKillPattern,
		serial:      uint8(mid),
		outstanding: make(map[frame.TID]*outRequest),
		delivered:   make(map[frame.RequesterSig]*inRequest),
	}
	if cfg.KernelRMRSize > 0 {
		n.rmrMemory = make([]byte, cfg.KernelRMRSize)
	}
	ep, err := deltat.New(k, w, mid, cfg.Transport, deltat.Hooks{
		OnData:        n.onData,
		OnDatagram:    n.onDatagram,
		OnHoldExpired: n.onHoldExpired,
	})
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", mid, err)
	}
	n.ep = ep
	return n, nil
}

// MID reports the node's machine id.
func (n *Node) MID() frame.MID { return n.mid }

// Client returns the running client, or nil when the node is free.
func (n *Node) Client() *Client { return n.client }

// Totals reports the client-side cost buckets; TransportTotals the
// kernel-side ones.
func (n *Node) Totals() CostTotals                 { return n.totals }
func (n *Node) TransportTotals() deltat.CostTotals { return n.ep.Totals() }
func (n *Node) ResetTotals()                       { n.totals = CostTotals{}; n.ep.ResetTotals() }

// TransportLedger returns the endpoint's live transport counters;
// PatternTableFull the kernel's count of AdvertiseUnique calls its full
// pattern table rejected. Both may be read and reset from any goroutine.
func (n *Node) TransportLedger() *deltat.Ledger  { return n.ep.Ledger() }
func (n *Node) PatternTableFull() *atomic.Uint64 { return &n.tableFull }

// nextTID issues a transaction id, unique on this machine across all time;
// monotonicity lets the kernel adjudicate stale ACCEPTs after a crash
// (§5.4).
func (n *Node) nextTID() frame.TID {
	n.tidCounter++
	return frame.TID(n.tidCounter)
}

// GetUniqueID implements the GETUNIQUEID primitive: an 8-bit serial number
// concatenated with a monotonic counter, network-wide unique (§3.4.2, §5.4).
func (n *Node) GetUniqueID() frame.Pattern {
	n.uidCounter++
	return frame.UniquePattern(n.serial, n.uidCounter)
}

// Advertise binds a client pattern (§3.4.1). Reserved-class patterns are
// the kernel's own and cannot be advertised by clients (§3.4.3). Following
// the implementation restriction of §5.4, a pattern whose low eight bits
// collide with an existing entry silently overwrites it.
func (n *Node) Advertise(p frame.Pattern) error {
	if !p.Valid() {
		return fmt.Errorf("advertise %v: wider than %d bits", p, frame.PatternSize)
	}
	if p.Reserved() {
		return fmt.Errorf("advertise %v: reserved patterns are bound to the kernel", p)
	}
	n.patterns[p.Slot()] = patternSlot{pat: p, active: true}
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsAdvertise, Pattern: p})
	}
	return nil
}

// Unadvertise removes a previously advertised client pattern. Requests
// already delivered to the handler are unaffected (§3.4.1).
func (n *Node) Unadvertise(p frame.Pattern) error {
	if p.Reserved() {
		return fmt.Errorf("unadvertise %v: reserved patterns are bound to the kernel", p)
	}
	s := &n.patterns[p.Slot()]
	if !s.active || s.pat != p {
		return fmt.Errorf("unadvertise %v: not advertised", p)
	}
	s.active = false
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsUnadvertise, Pattern: p})
	}
	return nil
}

// advertised reports whether p is currently served here: a client pattern
// in the table, or one of the kernel's reserved patterns.
func (n *Node) advertised(p frame.Pattern) bool {
	if p.Reserved() {
		switch {
		case n.bootPats[p]:
			return n.client == nil && n.loadPat == 0 // free node only
		case p == n.killPat, p == SystemPattern:
			return true
		case p == RMRPattern:
			return n.rmrMemory != nil
		case p == n.loadPat && n.loadPat != 0:
			return true
		}
		return false
	}
	s := n.patterns[p.Slot()]
	return s.active && s.pat == p
}

// slotTaken reports whether p's 8-bit table slot is already occupied by an
// active (different or identical) pattern.
func (n *Node) slotTaken(p frame.Pattern) bool {
	return n.patterns[p.Slot()].active
}

// clearClientPatterns wipes the client pattern table (DIE, §3.5.1).
func (n *Node) clearClientPatterns() {
	n.patterns = [256]patternSlot{}
}

// Boot starts a registered program directly on this node (the local
// equivalent of pressing the RESET button on a node with a ROM bootstrap,
// §3.5.3). parent is reported to the program's Init section.
func (n *Node) Boot(progName string, parent frame.MID) error {
	if n.client != nil {
		return fmt.Errorf("node %d: already running a client", n.mid)
	}
	prog, ok := n.registry[progName]
	if !ok {
		return fmt.Errorf("node %d: program %q not registered", n.mid, progName)
	}
	n.startClient(prog, progName, parent)
	return nil
}

// reset clears all kernel state associated with the (dead) client: client
// patterns, uncompleted requests in both roles, and the TID floor used to
// detect stale ACCEPTs (§3.6.1).
func (n *Node) reset() {
	n.epoch++
	n.acceptGen++
	n.clearClientPatterns()
	n.outstanding = make(map[frame.TID]*outRequest)
	// Abandon any parked input; its sender's retransmissions will find
	// the new state.
	if n.heldIn != nil {
		n.heldIn.gen = -1
		n.heldIn = nil
	}
	n.delivered = make(map[frame.RequesterSig]*inRequest)
	n.tidFloor = n.tidCounter
	n.loadPat = 0
	n.bootImage = nil
	// Frames held pending client action will never be resolved now; tell
	// their senders the state is gone (they report CRASHED). Deferred
	// acknowledgements for already-completed exchanges are transport
	// obligations and survive the reset on their own.
	n.ep.FailAllHolds(frame.ErrStale)
}

// Die implements the DIE primitive: the kernel resets its internal state
// and the node becomes eligible for booting again (§3.5.1). A client that
// executes DIE is treated as a crashed processor (§3.6.1).
func (n *Node) Die() {
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsDie})
	}
	if n.client != nil {
		n.client.terminate()
		n.client = nil
	}
	n.reset()
}

// Crash models a detectable processor failure: transport state is lost and
// the node leaves the network until Reboot (§3.6.1).
func (n *Node) Crash() {
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsCrash})
	}
	if n.client != nil {
		n.client.terminate()
		n.client = nil
	}
	n.ep.Crash() // first: a crashed kernel sends no parting NACKs
	n.reset()
}

// Reboot rejoins the network after the Delta-t quiet period; the node comes
// back as a free, bootable machine. ready (optional) runs once the node is
// back on the network.
func (n *Node) Reboot(ready func()) {
	n.ep.Reboot(func() {
		if n.cfg.Observer != nil {
			n.observe(ObsEvent{Kind: ObsReboot})
		}
		if ready != nil {
			ready()
		}
	})
}
