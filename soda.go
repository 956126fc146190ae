// Package soda is a faithful reproduction of SODA — the Simplified
// Operating System for Distributed Applications of Kepecs & Solomon
// (University of Wisconsin–Madison, 1984) — as a deterministic,
// virtual-time simulation.
//
// A SODA network is a set of nodes on a broadcast bus. Each node pairs a
// kernel processor (the SODA communications adaptor) with one uniprogrammed
// client processor. The kernel provides exactly ten primitives — REQUEST,
// ACCEPT, CANCEL, ADVERTISE, UNADVERTISE, GETUNIQUEID, OPEN, CLOSE,
// ENDHANDLER, DIE — plus broadcast DISCOVER and kernel-interpreted boot,
// load and kill patterns.
//
// Quick start:
//
//	nw := soda.NewNetwork()
//	nw.Register("server", soda.Program{
//		Init: func(c *soda.Client, _ soda.MID) { c.Advertise(pattern) },
//		Handler: func(c *soda.Client, ev soda.Event) {
//			if ev.Kind == soda.EventRequestArrival {
//				c.AcceptCurrentExchange(soda.OK, []byte("hi"), ev.PutSize)
//			}
//		},
//	})
//	nw.Register("client", soda.Program{
//		Task: func(c *soda.Client) {
//			srv, _ := c.Discover(pattern)
//			res := c.BExchange(srv, soda.OK, []byte("hello"), 64)
//			fmt.Println(res.Status, string(res.Data))
//		},
//	})
//	nw.MustAddNode(1)
//	nw.MustAddNode(2)
//	nw.MustBoot(1, "server")
//	nw.MustBoot(2, "client")
//	nw.Run(5 * time.Second) // five seconds of virtual time
//
// Everything — bus contention, the Delta-t reliability protocol,
// retransmission, probing, crashes and reboots — runs under a seeded
// discrete-event scheduler, so every run is exactly reproducible.
package soda

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
	"unicode/utf8"

	"soda/faults"
	"soda/internal/bus"
	"soda/internal/core"
	"soda/internal/frame"
	"soda/internal/internet"
	"soda/internal/netx"
	"soda/internal/sim"
	"soda/internal/wire"
	"soda/obs"
)

// Re-exported fundamental types. See the internal packages for full
// documentation; the aliases keep one public import path.
type (
	// MID is a network-wide unique machine id.
	MID = frame.MID
	// Pattern is a 48-bit service name.
	Pattern = frame.Pattern
	// TID is a per-machine unique transaction id.
	TID = frame.TID
	// ServerSig addresses a service: ⟨MID, PATTERN⟩.
	ServerSig = frame.ServerSig
	// RequesterSig identifies a request: ⟨MID, TID⟩.
	RequesterSig = frame.RequesterSig
	// Client is the uniprogrammed client process API.
	Client = core.Client
	// Program is the Init/Handler/Task triple loaded onto a node.
	Program = core.Program
	// Event is a handler invocation's tag.
	Event = core.Event
	// Status is a request completion status.
	Status = core.Status
	// AcceptStatus is an ACCEPT outcome.
	AcceptStatus = core.AcceptStatus
	// CallResult is a blocking request's outcome.
	CallResult = core.CallResult
	// AcceptResult is an ACCEPT's outcome.
	AcceptResult = core.AcceptResult
	// Node is one SODA machine (kernel + optional client).
	Node = core.Node
	// Config parameterizes a node's kernel.
	Config = core.Config
	// BusStats counts frames on the broadcast medium.
	BusStats = bus.Stats
	// Topology describes a segmented internetwork (see WithTopology).
	Topology = internet.Topology
	// GatewaySpec declares one gateway and the segments it bridges.
	GatewaySpec = internet.GatewaySpec
	// InternetStats counts gateway-layer work on a segmented network.
	InternetStats = internet.Stats
	// ParStats counts the parallel scheduler's deterministic work (see
	// WithParallelSim and Network.ParStats).
	ParStats = sim.ParStats
	// PatternTableFullError reports a saturated 256-slot pattern table.
	PatternTableFullError = core.PatternTableFullError
)

// Re-exported constants and values.
const (
	// BroadcastMID addresses every kernel (DISCOVER).
	BroadcastMID = frame.BroadcastMID
	// OK is the default request/accept argument.
	OK = core.OK

	EventRequestArrival    = core.EventRequestArrival
	EventRequestCompletion = core.EventRequestCompletion

	StatusSuccess      = core.StatusSuccess
	StatusCancelled    = core.StatusCancelled
	StatusCrashed      = core.StatusCrashed
	StatusUnadvertised = core.StatusUnadvertised
	StatusRejected     = core.StatusRejected

	AcceptSuccess   = core.AcceptSuccess
	AcceptCancelled = core.AcceptCancelled
	AcceptCrashed   = core.AcceptCrashed
)

// Reserved patterns bound at SODA creation time.
var (
	// BootPattern marks a free, bootable machine.
	BootPattern = core.DefaultBootPattern
	// KillPattern terminates a client regardless of handler state.
	KillPattern = core.DefaultKillPattern
)

// WellKnownPattern builds a published pattern from a 46-bit value.
func WellKnownPattern(v uint64) Pattern { return frame.WellKnownPattern(v) }

// StarTopology is a hub-and-spoke internetwork: segment 0 is the backbone
// and one gateway bridges each other segment to it, so any cross-segment
// path takes at most two gateway hops.
func StarTopology(segments int) Topology { return internet.Star(segments) }

// DefaultNodeConfig returns the per-node kernel configuration calibrated to
// the thesis's implementation (§5.5); tweak and pass via WithNodeConfig.
func DefaultNodeConfig() Config { return core.DefaultConfig() }

// BootRemote boots a registered program on a free machine (§3.5.2); the
// returned load pattern is the kill capability over the child.
func BootRemote(c *Client, target MID, bootPat Pattern, progName string) (Pattern, error) {
	return core.BootRemote(c, target, bootPat, progName)
}

// BootRemoteWithParams is BootRemote with a connector-style parameter
// block appended to the core image (§4.3.1); the booted client reads it
// back with Client.BootParams.
func BootRemoteWithParams(c *Client, target MID, bootPat Pattern, progName string, params []byte) (Pattern, error) {
	return core.BootRemoteWithParams(c, target, bootPat, progName, params)
}

// KillChild terminates a child booted with BootRemote.
func KillChild(c *Client, target MID, loadPat Pattern) bool {
	return core.KillChild(c, target, loadPat)
}

// KernelPeek reads from a node's kernel-level RMR region (§6.17.2; enable
// with Config.KernelRMRSize). The status is StatusRejected on bad addresses
// and StatusUnadvertised when the service is disabled at the destination.
func KernelPeek(c *Client, dst MID, addr, size int) ([]byte, Status) {
	return core.KernelPeek(c, dst, addr, size)
}

// KernelPoke writes into a node's kernel-level RMR region (§6.17.2).
func KernelPoke(c *Client, dst MID, addr int, value []byte) Status {
	return core.KernelPoke(c, dst, addr, value)
}

// Option configures a Network.
type Option interface{ apply(*options) }

type options struct {
	seed       int64
	busCfg     bus.Config
	nodeCfg    core.Config
	eventCap   uint64
	plan       *faults.Plan
	invariants bool
	tracer     *obs.Tracer
	metrics    *obs.Registry
	topo       *internet.Topology
	parWorkers int
	parShuffle int64
	sockListen string
	sockPeers  map[MID]string
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithSeed sets the deterministic random seed (default 1).
func WithSeed(seed int64) Option {
	return optionFunc(func(o *options) { o.seed = seed })
}

// WithLoss sets the per-receiver frame loss probability, exercising the
// Delta-t retransmission machinery.
func WithLoss(p float64) Option {
	return optionFunc(func(o *options) { o.busCfg.LossProb = p })
}

// WithPipelined selects the pipelined (input-buffer) kernel variant for all
// nodes (§5.2.3).
func WithPipelined(on bool) Option {
	return optionFunc(func(o *options) { o.nodeCfg.Pipelined = on })
}

// WithTransportWindow sets the Delta-t transport's sliding-window depth in
// messages (DESIGN.md §11). Values <= 1 keep the paper-faithful
// alternating-bit stop-and-wait transport, bit-identical to the default;
// values > 1 enable fragmentation and pipelining of reliable messages for
// bulk throughput, with selective-repeat loss recovery (DESIGN.md §12).
// The transport clamps the depth to 32 messages (deltat.MaxWindowMessages):
// a larger value runs at 32, and a negative one as stop-and-wait. Order
// with care: WithNodeConfig replaces the whole node configuration,
// including this field.
func WithTransportWindow(w int) Option {
	return optionFunc(func(o *options) { o.nodeCfg.Transport.Window = w })
}

// WithTopology splits the network into t.Segments bus segments joined by
// store-and-forward gateways (DESIGN.md §13). Nodes land on the segment
// t.Locate maps them to; unicast frames cross segments through routed
// gateway hops, broadcasts flood a spanning tree, and DISCOVER queries are
// answered from the gateways' pattern directory unless t.NoDiscoverCache.
// A topology of 0 or 1 segments is the default single shared bus, whose
// wire behavior stays byte-identical to a network built without this
// option.
func WithTopology(t Topology) Option {
	return optionFunc(func(o *options) { o.topo = &t })
}

// WithParallelSim asks the scheduler to execute bus segments in parallel,
// with at most workers segments running concurrently (DESIGN.md §15). It is
// a pure wall-clock optimization: a parallel run is byte-identical to the
// sequential run — same trace output, same event stream and profiles,
// same invariant verdicts, same random draws — because cross-segment events
// are bounded below by the topology's ForwardDelay (the conservative
// lookahead) and every globally sequenced side effect is committed in
// canonical order. Requires a WithTopology internetwork of at least two
// segments with a positive ForwardDelay; otherwise the network runs
// sequentially, warns once on stderr, and sets
// ParStats.FallbackSequential. workers <= 1 is plain sequential execution.
func WithParallelSim(workers int) Option {
	return optionFunc(func(o *options) { o.parWorkers = workers })
}

// WithParallelShuffle perturbs the order parallel window jobs are handed to
// workers, from the given seed (0 = natural order). Outputs are
// interleaving-independent, so this exists for determinism testing: runs
// with different shuffle seeds must stay byte-identical, and divergence
// indicates a commit-order race. No effect without WithParallelSim.
func WithParallelShuffle(seed int64) Option {
	return optionFunc(func(o *options) { o.parShuffle = seed })
}

// WithSocketTransport replaces the simulated broadcast bus with a real
// TCP transport (DESIGN.md §16): the network listens for peer connections
// on listen (use "127.0.0.1:0" for an ephemeral port and read the bound
// address back with SocketAddr), and virtual time is pinned to the wall
// clock by a real-time driver instead of the discrete-event scheduler.
// The kernel, Delta-t transport, and frame codec are unchanged — only the
// medium underneath them is real.
//
// A socket network runs differently from a simulated one:
//
//   - Peers are point-to-point TCP streams, declared with WithSocketPeers
//     or SetSocketPeer; broadcast (DISCOVER) fans out over every declared
//     peer plus local loopback.
//   - Run(d) runs the network for d of wall-clock time. For event-driven
//     completion use StartSocket / WaitSocket / WaitSocketIdle, then
//     CloseSocket.
//   - Runs are NOT deterministic. Observable equivalence with the sim
//     backend is cross-checked by the conformance harness (conformance/).
//
// WithSocketTransport is incompatible with WithTopology, WithParallelSim,
// WithFaultPlan and WithLoss (the real wire provides its own loss);
// NewNetwork panics on such combinations.
func WithSocketTransport(listen string) Option {
	return optionFunc(func(o *options) { o.sockListen = listen })
}

// WithSocketPeers declares the MID -> "host:port" address map of a socket
// network's peers (see WithSocketTransport). Peers may also be added
// after creation with SetSocketPeer, once their ephemeral addresses are
// known.
func WithSocketPeers(peers map[MID]string) Option {
	return optionFunc(func(o *options) {
		if o.sockPeers == nil {
			o.sockPeers = make(map[MID]string, len(peers))
		}
		for mid, addr := range peers {
			o.sockPeers[mid] = addr
		}
	})
}

// WithNodeConfig replaces the whole per-node configuration. Its observer
// hooks must be nil — consumers attach with Network.Subscribe — and
// NewNetwork panics otherwise.
func WithNodeConfig(cfg Config) Option {
	return optionFunc(func(o *options) { o.nodeCfg = cfg })
}

// WithEventLimit caps total simulation events (a livelock backstop).
func WithEventLimit(n uint64) Option {
	return optionFunc(func(o *options) { o.eventCap = n })
}

// WithFaultPlan injects a fault schedule into the run: window events shape
// the medium via the bus fault model, and crash/reboot events drive node
// lifecycle on the virtual clock. The plan is validated at NewNetwork time
// (panicking on a malformed plan, like an impossible topology would).
func WithFaultPlan(p faults.Plan) Option {
	return optionFunc(func(o *options) { o.plan = &p })
}

// WithInvariantChecks subscribes a faults.Checker to the network's kernel
// and delivery events for the whole run; read the verdict with
// Network.Invariants after the run settles.
func WithInvariantChecks() Option {
	return optionFunc(func(o *options) { o.invariants = true })
}

// WithTracer subscribes an obs.Tracer to the network's kernel, transport
// and delivery events, assembling one causal span per REQUEST. Export with
// Tracer.WriteChromeTrace after the run. Attaching a tracer never changes
// behavior: the stream is synchronous observation, and a run without
// subscribers builds no events at all.
func WithTracer(t *obs.Tracer) Option {
	return optionFunc(func(o *options) { o.tracer = t })
}

// WithMetrics subscribes an obs.Registry to the network's kernel and
// transport events: per-primitive latency histograms and per-node protocol
// counters. Read it after the run (Registry.WriteSummary, or
// Network.Profile for the exportable form).
func WithMetrics(r *obs.Registry) Option {
	return optionFunc(func(o *options) { o.metrics = r })
}

// Network is a simulated SODA network: the virtual clock, the broadcast
// bus (or the bus segments of a WithTopology internetwork), the program
// registry, and the set of nodes.
type Network struct {
	k *sim.Kernel
	// coord drives conservative parallel execution (WithParallelSim); nil on
	// a sequential network. When set, k is the coordinator's global kernel.
	coord *sim.Coordinator
	// parStats records the fallback verdict when parallelism was requested
	// but unusable (coord == nil); with a coordinator, ParStats() reads live
	// counters from it instead.
	parStats sim.ParStats
	// b is the single shared bus; nil when the network is segmented.
	b *bus.Bus
	// buses lists every bus segment ([b] on a single-segment network).
	buses []*bus.Bus
	// nx is the real TCP transport (WithSocketTransport); nil on a
	// simulated network. When set, b, buses and inet are all nil.
	nx      *netx.Network
	inet    *internet.Internet
	reg     core.Registry
	cfg     core.Config
	nodes   map[MID]*core.Node
	checker *faults.Checker
	tracer  *obs.Tracer
	metrics *obs.Registry
	// stream lists the event stream's subscribers (see Subscribe).
	stream stream
}

// warnOutput receives setup-time configuration warnings; a variable so
// tests can capture them.
var warnOutput io.Writer = os.Stderr

// parFallbackWarning is the WithParallelSim degradation notice (pinned by
// TestParallelFallbackWarning).
const parFallbackWarning = "soda: WithParallelSim(%d) needs a multi-segment WithTopology with a positive ForwardDelay; running sequentially\n"

// NewNetwork creates an empty network.
func NewNetwork(opts ...Option) *Network {
	o := options{
		seed:     1,
		busCfg:   bus.DefaultConfig(),
		nodeCfg:  core.DefaultConfig(),
		eventCap: 50_000_000,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.nodeCfg.Observer != nil || o.nodeCfg.Transport.Observer != nil {
		panic("soda: WithNodeConfig carries an Observer; attach consumers with Network.Subscribe")
	}
	useParallel := o.parWorkers > 1 && o.topo != nil && o.topo.Segments > 1 && o.topo.ForwardDelay > 0
	nw := &Network{
		reg:   core.Registry{},
		cfg:   o.nodeCfg,
		nodes: make(map[MID]*core.Node),
	}
	if o.sockListen != "" {
		switch {
		case o.topo != nil:
			panic("soda: WithSocketTransport is incompatible with WithTopology")
		case o.parWorkers > 1:
			panic("soda: WithSocketTransport is incompatible with WithParallelSim")
		case o.plan != nil:
			panic("soda: WithSocketTransport is incompatible with WithFaultPlan")
		case o.busCfg.LossProb != 0:
			panic("soda: WithSocketTransport is incompatible with WithLoss (the real wire provides its own loss)")
		}
		k := sim.New(o.seed)
		k.SetEventLimit(o.eventCap)
		nw.k = k
		nx, err := netx.New(k, netx.Config{Listen: o.sockListen, Peers: o.sockPeers})
		if err != nil {
			panic(fmt.Sprintf("soda: %v", err))
		}
		nw.nx = nx
	} else if useParallel {
		c := sim.NewCoordinator(o.seed, o.topo.Segments, o.parWorkers, o.topo.ForwardDelay)
		c.SetEventLimit(o.eventCap)
		if o.parShuffle != 0 {
			c.SetShuffle(o.parShuffle)
		}
		nw.coord = c
		nw.k = c.Global()
		in, err := internet.NewSharded(c.Shards(), o.busCfg, *o.topo)
		if err != nil {
			panic(fmt.Sprintf("soda: %v", err))
		}
		nw.inet = in
		for s := 0; s < in.Segments(); s++ {
			nw.buses = append(nw.buses, in.Bus(s))
		}
	} else {
		k := sim.New(o.seed)
		k.SetEventLimit(o.eventCap)
		nw.k = k
		if o.parWorkers > 1 {
			fmt.Fprintf(warnOutput, parFallbackWarning, o.parWorkers)
			nw.parStats = sim.ParStats{Workers: o.parWorkers, FallbackSequential: true}
		}
		if o.topo != nil && o.topo.Segments > 1 {
			in, err := internet.New(k, o.busCfg, *o.topo)
			if err != nil {
				panic(fmt.Sprintf("soda: %v", err))
			}
			nw.inet = in
			for s := 0; s < in.Segments(); s++ {
				nw.buses = append(nw.buses, in.Bus(s))
			}
		} else {
			nw.b = bus.New(k, o.busCfg)
			nw.buses = []*bus.Bus{nw.b}
		}
	}
	if nw.inet != nil && nw.coord == nil {
		// The internetwork's pattern directory follows the advertise and
		// crash kernel events (the DISCOVER cache coherence contract,
		// DESIGN.md §13); a parallel network applies it in nodeHooks.
		nw.Subscribe(Subscriber{Kernel: nw.inet.Observe})
	}
	if o.invariants {
		nw.checker = faults.NewChecker()
		nw.Subscribe(Subscriber{Kernel: nw.checker.Observe, Delivery: nw.checker.ObserveDelivery})
	}
	if nw.tracer = o.tracer; nw.tracer != nil {
		nw.Subscribe(Subscriber{Kernel: nw.tracer.Observe, Transport: nw.tracer.ObserveTransport, Delivery: nw.tracer.ObserveDelivery})
	}
	if nw.metrics = o.metrics; nw.metrics != nil {
		nw.Subscribe(Subscriber{Kernel: nw.metrics.Observe, Transport: nw.metrics.ObserveTransport})
	}
	nw.armPlan(o.plan)
	return nw
}

// armPlan installs a fault plan: window events become each segment's fault
// model, gateway chaos lands on the global kernel (it spans segments, so it
// must run in exclusive steps under the parallel scheduler), and node
// crash/reboot events are routed to the kernel owning the target's segment.
func (nw *Network) armPlan(plan *faults.Plan) {
	if plan == nil {
		return
	}
	inj, err := faults.NewInjector(nw.k, *plan)
	if err != nil {
		panic(fmt.Sprintf("soda: %v", err))
	}
	if nw.inet != nil {
		for s, b := range nw.buses {
			if nw.coord != nil {
				// Fault-model random draws happen on the segment's shard
				// during windows; routing them through that shard's kernel
				// keeps them on the run's canonical random stream.
				b.SetFaultModel(inj.ForSegmentOn(s, nw.coord.Shard(s)))
			} else {
				b.SetFaultModel(inj.ForSegment(s))
			}
		}
		inj.ArmGateways(nw.inet)
	} else {
		nw.b.SetFaultModel(inj)
	}
	if nw.coord != nil {
		inj.ArmRouted(nodeControl{nw}, func(mid MID) *sim.Kernel {
			if s := nw.inet.SegmentOf(mid); s >= 0 {
				return nw.coord.Shard(s)
			}
			return nw.k
		})
		return
	}
	inj.Arm(nodeControl{nw})
}

// nodeControl adapts the network to the fault injector's crash/reboot
// schedule. Targets are resolved at fire time; unknown machines no-op.
type nodeControl struct{ nw *Network }

func (c nodeControl) Crash(mid MID) {
	if n := c.nw.nodes[mid]; n != nil {
		n.Crash()
	}
}

func (c nodeControl) Reboot(mid MID, program string) {
	n := c.nw.nodes[mid]
	if n == nil {
		return
	}
	n.Reboot(func() {
		if program != "" {
			// Boot failures (e.g. an unregistered program in the plan)
			// leave the node free and bootable, matching a bad ROM image.
			_ = n.Boot(program, 0)
		}
	})
}

// Invariants returns the invariant checker installed by
// WithInvariantChecks, or nil. Read it after the run: Finish() lists
// violations, Unresolved() lists stuck requests.
func (nw *Network) Invariants() *faults.Checker { return nw.checker }

// Tracer returns the tracer installed by WithTracer, or nil.
func (nw *Network) Tracer() *obs.Tracer { return nw.tracer }

// Metrics returns the metrics registry installed by WithMetrics, or nil.
func (nw *Network) Metrics() *obs.Registry { return nw.metrics }

// Profile builds an exportable run profile (latency digests, per-node
// counters, bus counters) from the attached metrics registry; nil when the
// network was built without WithMetrics.
func (nw *Network) Profile(scenario string) *obs.Profile {
	if nw.metrics == nil {
		return nil
	}
	p := nw.metrics.Profile(scenario, nw.Now())
	p.Bus = obs.BusCountersFrom(nw.Stats())
	return p
}

// Register adds a bootable program under name.
func (nw *Network) Register(name string, prog Program) { nw.reg[name] = prog }

// AddNode attaches a free SODA machine at mid. On a segmented network the
// node lands on the segment Topology.Locate maps it to.
func (nw *Network) AddNode(mid MID) (*Node, error) {
	b := nw.b
	k := nw.k
	var shard *sim.Kernel
	if nw.inet != nil {
		if mid >= internet.GatewayMIDBase {
			return nil, fmt.Errorf("soda: MID %d collides with the gateway range (>= %d)", mid, internet.GatewayMIDBase)
		}
		var err error
		if b, err = nw.inet.BusFor(mid); err != nil {
			return nil, err
		}
		if shard = nw.shard(nw.inet.SegmentOf(mid)); shard != nil {
			// The node schedules on the kernel owning its segment, and its
			// event hooks buffer (or gate) through that same kernel.
			k = shard
		}
	}
	cfg := nw.cfg
	cfg.Observer, cfg.Transport.Observer = nw.nodeHooks(shard)
	var w wire.Network
	if nw.nx != nil {
		w = nw.nx
	} else {
		w = b.Wire()
	}
	n, err := core.NewNode(k, w, mid, cfg, nw.reg)
	if err != nil {
		return nil, err
	}
	nw.nodes[mid] = n
	return n, nil
}

// MustAddNode is AddNode, panicking on error (setup-time convenience).
func (nw *Network) MustAddNode(mid MID) *Node {
	n, err := nw.AddNode(mid)
	if err != nil {
		panic(err)
	}
	return n
}

// Node returns the node at mid, or nil.
func (nw *Network) Node(mid MID) *Node { return nw.nodes[mid] }

// Boot starts a registered program on the node at mid (local boot).
func (nw *Network) Boot(mid MID, prog string) error {
	n, ok := nw.nodes[mid]
	if !ok {
		return fmt.Errorf("soda: no node %d", mid)
	}
	return n.Boot(prog, 0)
}

// MustBoot is Boot, panicking on error.
func (nw *Network) MustBoot(mid MID, prog string) {
	if err := nw.Boot(mid, prog); err != nil {
		panic(err)
	}
}

// Run advances the simulation by d of virtual time. On a socket-transport
// network this is d of wall-clock time: the real-time driver is started if
// needed and the call blocks until the deadline passes.
func (nw *Network) Run(d time.Duration) error {
	if nw.nx != nil {
		return nw.nx.RunFor(d)
	}
	if nw.coord != nil {
		return nw.coord.RunUntil(nw.k.Now() + d)
	}
	return nw.k.RunUntil(nw.k.Now() + d)
}

// RunToCompletion processes events until none remain. It returns an error
// if client processes are deadlocked (suspended with no pending events).
// Undefined on a socket-transport network (peers keep the event queue
// alive); use StartSocket with a completion predicate instead.
func (nw *Network) RunToCompletion() error {
	if nw.nx != nil {
		return fmt.Errorf("soda: RunToCompletion is undefined on a socket-transport network; use StartSocket/WaitSocket")
	}
	if nw.coord != nil {
		return nw.coord.Run()
	}
	return nw.k.Run()
}

// Close ends the network once its last run has returned: every process
// still suspended or holding — on the kernel, or on every shard of a
// parallel network — is unwound through its deferred calls and its
// goroutine exits. On a socket network it is CloseSocket: it first stops
// the socket side and returns that error, leaving the kernel alone when
// the socket side failed to stop. Results read before Close (Stats,
// Invariants, Profile, trace hashes) are unaffected, and a closed network
// must not be run again. Close is idempotent.
func (nw *Network) Close() error {
	if nw.nx != nil {
		if err := nw.nx.Close(); err != nil {
			return err
		}
	}
	if nw.coord != nil {
		nw.coord.Close()
		return nil
	}
	nw.k.Close()
	return nil
}

// ParStats reports the parallel scheduler's deterministic counters: the
// zero value on a plain sequential network, FallbackSequential (with the
// requested worker count) when WithParallelSim degraded, and live window /
// staging / gate counters when the coordinator is driving the run.
func (nw *Network) ParStats() ParStats {
	if nw.coord != nil {
		return nw.coord.Stats()
	}
	return nw.parStats
}

// Now reports the current virtual time.
func (nw *Network) Now() time.Duration { return nw.k.Now() }

// At schedules fn at an absolute virtual time (testing and fault
// injection: crash a node mid-run, etc.).
func (nw *Network) At(t time.Duration, fn func()) { nw.k.At(t, fn) }

// Trace subscribes a frame log writing one line per frame transmission to
// w (nil subscribes nothing): the timestamp, source, destination and
// transport kind. On a segmented network each line is prefixed with the
// segment it was heard on (a relayed frame appears once per segment it
// crosses, with the gateway as its wire-level source). Like Subscribe, it
// must precede the first AddNode. Intended for debugging protocol flows;
// the output is deterministic on the simulator only — a socket network
// stamps virtual time pinned to the wall clock.
func (nw *Network) Trace(w io.Writer) {
	if w == nil {
		return
	}
	l := &frameLog{w: w, segmented: nw.inet != nil}
	nw.Subscribe(Subscriber{Transmit: l.line})
}

// frameLog writes Trace's lines. Each line is built in one reused buffer
// and written with one Write; its bytes are those of the format
// "%s%12v  %3d -> %-9s %-6v %4dB\n" applied to the segment prefix ("s1 "
// on a segmented network, else empty), time, source, destination
// ("broadcast" or the MID), kind and size.
type frameLog struct {
	w         io.Writer
	segmented bool
	buf       []byte
}

func (l *frameLog) line(e TransmitEvent) {
	b := l.buf[:0]
	if l.segmented {
		b = append(strconv.AppendInt(append(b, 's'), int64(e.Seg), 10), ' ')
	}
	start := len(b)
	b = alignRight(append(b, e.At.String()...), start, 12)
	b = append(b, "  "...)
	start = len(b)
	b = alignRight(strconv.AppendUint(b, uint64(e.Src), 10), start, 3)
	b = append(b, " -> "...)
	start = len(b)
	if e.Dst == BroadcastMID {
		b = append(b, "broadcast"...)
	} else {
		b = strconv.AppendUint(b, uint64(e.Dst), 10)
	}
	b = alignLeft(b, start, 9)
	b = append(b, ' ')
	start = len(b)
	b = alignLeft(append(b, e.Kind.String()...), start, 6)
	b = append(b, ' ')
	start = len(b)
	b = alignRight(strconv.AppendInt(b, int64(e.Size), 10), start, 4)
	b = append(b, "B\n"...)
	l.buf = b
	// The log is best-effort debugging output, as fmt.Fprintf's was.
	_, _ = l.w.Write(b)
}

// alignRight pads the field b[start:] with leading spaces to width runes,
// as fmt's %<width>v does.
func alignRight(b []byte, start, width int) []byte {
	pad := width - utf8.RuneCount(b[start:])
	if pad <= 0 {
		return b
	}
	end := len(b)
	for i := 0; i < pad; i++ {
		b = append(b, ' ')
	}
	copy(b[start+pad:], b[start:end])
	for i := start; i < start+pad; i++ {
		b[i] = ' '
	}
	return b
}

// alignLeft pads the field b[start:] with trailing spaces to width runes,
// as fmt's %-<width>v does.
func alignLeft(b []byte, start, width int) []byte {
	for pad := width - utf8.RuneCount(b[start:]); pad > 0; pad-- {
		b = append(b, ' ')
	}
	return b
}

// Stats returns the medium's traffic counters (on a segmented network,
// the sum over every segment) with the nodes' own counts added: each
// endpoint's transport ledger and each kernel's pattern-table rejections.
// It may be called from any goroutine while a socket network runs.
func (nw *Network) Stats() BusStats {
	var st BusStats
	switch {
	case nw.nx != nil:
		st = nw.nx.Stats()
	case nw.inet == nil:
		st = nw.b.Stats()
	default:
		for _, b := range nw.buses {
			st.Add(b.Stats())
		}
	}
	//lint:allow mapiterorder (sums of counters are order-insensitive)
	for _, n := range nw.nodes {
		l := n.TransportLedger()
		st.Retransmissions += l.Retransmissions.Load()
		st.PiggybackedAcks += l.PiggybackedAcks.Load()
		st.PeerDeadTimeouts += l.PeerDeadTimeouts.Load()
		st.PatternTableFull += n.PatternTableFull().Load()
		st.WindowFills += l.WindowFills.Load()
		st.CumulativeAcks += l.CumulativeAcks.Load()
		st.FragmentRetransmits += l.FragmentRetransmits.Load()
		st.SelectiveRetransmits += l.SelectiveRetransmits.Load()
		st.SackBlocksSent += l.SackBlocksSent.Load()
		st.WindowIncreases += l.WindowIncreases.Load()
		st.WindowDecreases += l.WindowDecreases.Load()
	}
	return st
}

// ResetStats zeroes every counter Stats reports — every segment's, the
// nodes' and the gateway layer's — for measurement windows.
func (nw *Network) ResetStats() {
	//lint:allow mapiterorder (zeroing counters is order-insensitive)
	for _, n := range nw.nodes {
		n.TransportLedger().Reset()
		n.PatternTableFull().Store(0)
	}
	if nw.nx != nil {
		nw.nx.ResetStats()
		return
	}
	for _, b := range nw.buses {
		b.ResetStats()
	}
	if nw.inet != nil {
		nw.inet.ResetStats()
	}
}

// Segments reports the number of bus segments (1 without WithTopology).
func (nw *Network) Segments() int {
	if nw.inet == nil {
		return 1
	}
	return nw.inet.Segments()
}

// SegmentOf reports a node MID's home segment (always 0 without
// WithTopology; -1 for MIDs the topology cannot locate).
func (nw *Network) SegmentOf(mid MID) int {
	if nw.inet == nil {
		return 0
	}
	return nw.inet.SegmentOf(mid)
}

// InternetStats returns the gateway-layer counters (forwards, TTL drops,
// DISCOVER cache traffic); zero without WithTopology.
func (nw *Network) InternetStats() InternetStats {
	if nw.inet == nil {
		return InternetStats{}
	}
	return nw.inet.Stats()
}

// socket returns the TCP transport, panicking on a simulated network (the
// Socket* methods are programmer errors there, like MustAddNode's panic).
func (nw *Network) socket(method string) *netx.Network {
	if nw.nx == nil {
		panic("soda: " + method + " requires WithSocketTransport")
	}
	return nw.nx
}

// SocketAddr reports the bound listen address of a socket-transport
// network ("127.0.0.1:54321" after listening on "127.0.0.1:0").
func (nw *Network) SocketAddr() string { return nw.socket("SocketAddr").Addr() }

// SetSocketPeer maps a peer MID to its "host:port" address, connecting
// lazily on first send (and redialing on failure). Used to wire ephemeral
// addresses after every process has bound its listener.
func (nw *Network) SetSocketPeer(mid MID, addr string) {
	nw.socket("SetSocketPeer").SetPeer(mid, addr)
}

// StartSocket launches the real-time driver of a socket-transport
// network: virtual time 0 is pinned to the wall clock at the call. done,
// when non-nil, is polled between events on the driver goroutine — it may
// read kernel-owned node state — and parks the driver once it reports
// true. Idempotent.
func (nw *Network) StartSocket(done func() bool) { nw.socket("StartSocket").Start(done) }

// WaitSocket blocks until the driver parks (done predicate satisfied or
// CloseSocket), or max elapses; it reports whether the driver parked.
// After a true return, kernel-owned state is safe to read from the caller.
func (nw *Network) WaitSocket(max time.Duration) bool {
	return nw.socket("WaitSocket").Wait(max)
}

// WaitSocketIdle blocks until the network has been quiescent — no frames
// moving, no timers firing — for settle, or until max elapses; it reports
// whether quiescence was reached. This is how a server-side harness knows
// its peers are done without a completion predicate of its own.
//
// A parked driver counts as quiescent, so after WaitSocket has returned
// true WaitSocketIdle returns true at once, and nothing settles: a parked
// driver answers no peer and sends none of the acknowledgements its
// machines still owe. A caller that must settle keeps the driver running
// while it waits — give StartSocket a done predicate that holds only once
// the condition has held for the settle time, as cmd/sodasim does.
func (nw *Network) WaitSocketIdle(settle, max time.Duration) bool {
	return nw.socket("WaitSocketIdle").WaitIdle(settle, max)
}

// PostSocket schedules fn onto the socket network's driver goroutine in
// kernel context — the one safe way to read (or mutate) kernel-owned node
// state while the driver runs. It blocks until accepted and reports false
// if the network stops first; an accepted fn runs unless the driver exits
// before its turn.
func (nw *Network) PostSocket(fn func()) bool { return nw.socket("PostSocket").Post(fn) }

// SocketErr reports a driver fault (event-limit overrun), readable after
// WaitSocket/CloseSocket.
func (nw *Network) SocketErr() error { return nw.socket("SocketErr").Err() }

// CloseSocket ends a socket network as Close does: it stops the driver,
// closes the listener and every connection, waits for all socket
// goroutines to drain, and then unwinds every process still parked on the
// kernel, which a socket network cannot run again anyway. A non-nil error
// means a goroutine leaked past the drain timeout — tests treat that as a
// failure — and leaves the kernel's processes in place.
func (nw *Network) CloseSocket() error {
	nw.socket("CloseSocket")
	return nw.Close()
}
