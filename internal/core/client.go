package core

import (
	"fmt"

	"time"

	"soda/internal/frame"
	"soda/internal/sim"
)

// killedError unwinds a client process that was terminated (KILL pattern,
// DIE, second LOAD signal, or node crash). It is recovered at the process
// boundary; user code never observes it.
type killedError struct{}

// CallResult is the outcome of a blocking request (B_SIGNAL / B_PUT /
// B_GET / B_EXCHANGE, §4.1.1). Status follows the SODAL convention that a
// negative accept argument denotes rejection (§4.1.2).
type CallResult struct {
	Status Status
	Arg    int32
	Data   []byte
	PutN   int
	GetN   int
	TID    frame.TID
}

// AcceptResult is the outcome of the ACCEPT primitive.
type AcceptResult struct {
	Status AcceptStatus
	// Data is the requester's put-buffer contents (up to PutN bytes).
	Data []byte
	// PutN and GetN are the amounts transferred requester→server and
	// server→requester respectively.
	PutN int
	GetN int
}

// OK is the default argument used when the client has nothing to say
// (§4.1).
const OK int32 = 0

// Client is the uniprogrammed client process running on a Node. All methods
// must be called from within the client's own code (Init, Handler or Task);
// the runtime enforces the thesis's handler discipline: invocations never
// nest, the task is frozen while the handler is BUSY, and completion
// interrupts queue while arrival interrupts are retried by the requester's
// kernel (§3.3.4, §3.7.5).
type Client struct {
	node *Node
	k    *sim.Kernel
	prog Program
	name string
	// handlerName is the process name for handler invocations, built once
	// at boot: dispatch runs per delivered event and must not pay a
	// fmt.Sprintf allocation every time (//lint:hotpath noalloc).
	handlerName string

	taskProc    *sim.Proc
	handlerProc *sim.Proc

	open          bool // handler OPEN/CLOSED (§3.3.4)
	busy          bool // handler BUSY (executing or dispatch pending)
	inHandler     bool
	deferredValid bool // OPEN/CLOSE issued inside the handler defers
	deferredOpen  bool
	curEvent      *Event

	completions []Event                   // queued completion interrupts
	intercept   map[frame.TID]func(Event) // blocking-request completions

	// next is the event of the one dispatch that busy admits at a time,
	// nextHook its runtime interception (nil for the program handler).
	// fireDispatch and runHandler are dispatchNow and handle, bound once
	// at boot so that a dispatch schedules and spawns without allocating.
	next         Event
	nextHook     func(Event)
	fireDispatch func()
	runHandler   func(*sim.Proc)
	// callRes and callOver hold the outcome of the task's one blocking
	// request in flight; callHook (endCall) and callDone (callEnded) are
	// its interception and wait condition, bound once at boot.
	callRes  Event
	callOver bool
	callHook func(Event)
	callDone func() bool

	taskParked bool
	dead       bool

	params []byte // connector-supplied boot parameters (§4.3.1)
	stash  any    // per-instance client state (shared by Init/Handler/Task)
}

// BootParams returns the parameter block a connector appended to this
// client's core image, or nil when booted plain (§4.3.1's load-time
// interconnection: "the connector will modify the client core image").
func (c *Client) BootParams() []byte { return c.params }

// Now reports the current virtual time. SODA itself provides no clock —
// time services are utility clients (§4.4.3) — but the simulation's
// substrate clock is what a hardware clock chip would supply.
func (c *Client) Now() time.Duration { return c.k.Now() }

// OnCompletion registers fn to consume the completion interrupt for tid
// instead of the program handler. This is the hook SODAL's generated
// handler code uses for blocking requests (§4.1.1); library code (timeouts,
// selective waits) builds on it. fn runs in handler context; at most one
// registration per TID.
func (c *Client) OnCompletion(tid frame.TID, fn func(Event)) {
	c.intercept[tid] = fn
}

// Stash returns the per-client-instance state previously stored with
// SetStash. Programs in a Registry are shared across boots; the stash gives
// each running instance its own globals (the "global declarations" of a
// SODAL program, §4.1).
func (c *Client) Stash() any { return c.stash }

// SetStash stores per-instance state.
func (c *Client) SetStash(v any) { c.stash = v }

// startClient loads prog as the node's client and begins execution:
// Init (the BOOTING handler invocation), then Task. Die is implicit when
// Task returns (§4.1).
func (n *Node) startClient(prog Program, name string, parent frame.MID) {
	n.startClientWithParams(prog, name, parent, nil)
}

// startClientWithParams is startClient carrying a connector-supplied
// parameter block (§4.3.1).
func (n *Node) startClientWithParams(prog Program, name string, parent frame.MID, params []byte) {
	c := &Client{
		node:        n,
		k:           n.k,
		prog:        prog,
		name:        name,
		handlerName: fmt.Sprintf("handler/%s@%d", name, n.mid),
		params:      params,
		open:        true, // the handler is OPEN at boot (§3.7.6)
		intercept:   make(map[frame.TID]func(Event)),
	}
	c.fireDispatch, c.runHandler = c.dispatchNow, c.handle
	c.callHook, c.callDone = c.endCall, c.callEnded
	n.client = c
	c.taskProc = n.k.Spawn(fmt.Sprintf("client/%s@%d", name, n.mid), func(p *sim.Proc) {
		defer c.recoverKill()
		if c.prog.Init != nil {
			c.inHandler = true
			c.busy = true
			c.prog.Init(c, parent)
			c.inHandler = false
			c.endHandler()
		}
		if c.prog.Task != nil {
			c.gateTask()
			c.prog.Task(c)
			// Die is implicit at the end of the Task procedure (§4.1).
			if !c.dead {
				c.node.Die()
			}
			return
		}
		// A handler-only program idles forever: its task is the empty
		// polling loop.
		c.gateTask()
		c.WaitUntil(func() bool { return false })
	})
}

// terminate marks the client dead and wakes its processes so they unwind.
func (c *Client) terminate() {
	c.dead = true
	if c.taskProc != nil && c.taskProc.Suspended() {
		c.taskProc.Resume()
	}
	if c.handlerProc != nil && c.handlerProc.Suspended() {
		c.handlerProc.Resume()
	}
}

func (c *Client) recoverKill() {
	if r := recover(); r != nil {
		if _, ok := r.(killedError); ok {
			return
		}
		panic(r)
	}
}

func (c *Client) checkKilled() {
	if c.dead {
		panic(killedError{})
	}
}

// MID reports this client's machine id (MY_MID, §3.7.3).
func (c *Client) MID() frame.MID { return c.node.mid }

// Name reports the program name the client was booted as.
func (c *Client) Name() string { return c.name }

// Current returns the event being handled, or nil outside the handler.
// ACCEPT_CURRENT-style helpers use it (§4.1.2). The client reuses the
// event's storage for its next invocation, so the pointer is good only
// until the handler returns.
func (c *Client) Current() *Event { return c.curEvent }

// InHandler reports whether the calling code runs in handler context.
func (c *Client) InHandler() bool { return c.inHandler }

// currentProc identifies the client process executing right now. The
// scheduler is authoritative: the shared inHandler flag cannot distinguish
// the task running during a handler-proc suspension (e.g. the task's Hold
// expiring while the handler waits inside an ACCEPT).
func (c *Client) currentProc() *sim.Proc {
	if p := c.k.Current(); p != nil {
		return p
	}
	return c.taskProc
}

// inTaskContext reports whether p is the task proper — not the Init
// section, which runs on the task's process but in handler context.
func (c *Client) inTaskContext(p *sim.Proc) bool {
	return p == c.taskProc && !(c.inHandler && c.handlerProc == nil)
}

// charge bills one primitive invocation of client overhead (§5.5) against
// the calling process.
func (c *Client) charge() {
	d := c.node.cfg.Costs.ClientOverhead
	if d <= 0 {
		return
	}
	c.node.totals.ClientOverhead += d
	c.currentProc().Hold(d)
	c.checkKilled()
}

// handlerAvailable reports OPEN ∧ IDLE with no queued completions (§3.7.5).
func (c *Client) handlerAvailable() bool {
	return c.open && !c.busy && len(c.completions) == 0 && !c.dead
}

// deliverArrival invokes the handler for an incoming REQUEST. The kernel
// guarantees availability before calling.
func (c *Client) deliverArrival(ev Event) {
	c.busy = true
	c.dispatch(ev, nil)
}

// deliverCompletion queues or dispatches a completion interrupt (§3.3.4).
func (c *Client) deliverCompletion(ev Event) {
	if c.dead {
		return
	}
	if hook, ok := c.intercept[ev.Asker.TID]; ok && c.busy {
		// A blocking request issued from the task completed while the
		// handler is busy: the interception is runtime-internal, so it
		// need not wait for the user handler — record and continue.
		delete(c.intercept, ev.Asker.TID)
		//lint:allow noalloc (indirect: blocking-call interception, created at a //lint:hotpath root)
		hook(ev)
		return
	}
	if c.open && !c.busy {
		c.busy = true
		if hook, ok := c.intercept[ev.Asker.TID]; ok {
			delete(c.intercept, ev.Asker.TID)
			c.dispatch(ev, hook)
			return
		}
		c.dispatch(ev, nil)
		return
	}
	//lint:allow noalloc (amortized: completion queue grows to peak depth, then reused)
	c.completions = append(c.completions, ev)
}

// dispatch runs one handler invocation (or a runtime interception) after
// the context-switch cost. busy is already set, and stays set until the
// invocation ends, so the event waits in c.next.
func (c *Client) dispatch(ev Event, hook func(Event)) {
	cost := c.node.cfg.Costs.CtxSwitch
	c.node.totals.CtxSwitch += cost
	c.next, c.nextHook = ev, hook
	c.k.After(cost, c.fireDispatch)
}

// dispatchNow is the pending dispatch, once its context switch has
// elapsed: an interception runs here, the program handler in a process of
// its own.
//
//lint:hotpath
func (c *Client) dispatchNow() {
	if c.dead {
		return
	}
	if hook := c.nextHook; hook != nil {
		//lint:allow noalloc (indirect: blocking-call interception, bound at boot (endCall, a //lint:hotpath root) or registered through OnCompletion)
		hook(c.next)
		c.endHandler()
		return
	}
	c.k.Spawn(c.handlerName, c.runHandler)
}

// handle is the body of a handler process.
//
//lint:hotpath
func (c *Client) handle(p *sim.Proc) {
	defer c.recoverKill()
	if c.dead {
		return
	}
	c.handlerProc = p
	c.inHandler = true
	c.curEvent = &c.next
	if c.prog.Handler != nil {
		//lint:allow noalloc (indirect: user program handler, outside the kernel's budget)
		c.prog.Handler(c, c.next)
	}
	c.curEvent = nil
	c.inHandler = false
	c.handlerProc = nil
	c.endHandler()
}

// endHandler implements ENDHANDLER (§3.3.4): apply deferred OPEN/CLOSE,
// drain one queued completion interrupt (keeping the handler BUSY while any
// remain, §3.7.5), release a parked request (pipelined kernels), and
// finally let the task continue.
func (c *Client) endHandler() {
	if c.dead {
		return
	}
	if c.deferredValid {
		c.open = c.deferredOpen
		c.deferredValid = false
	}
	c.busy = false
	if c.open && len(c.completions) > 0 {
		ev := c.completions[0]
		c.completions = c.completions[1:]
		c.busy = true
		if hook, ok := c.intercept[ev.Asker.TID]; ok {
			delete(c.intercept, ev.Asker.TID)
			c.dispatch(ev, hook)
		} else {
			c.dispatch(ev, nil)
		}
		return
	}
	if c.open {
		c.node.releaseHeldInput()
	}
	if !c.busy {
		c.kickTask()
	}
}

// Open implements OPEN (§3.3.4). Inside the handler the effect is deferred
// to ENDHANDLER.
func (c *Client) Open() {
	c.checkKilled()
	if c.inHandler {
		c.deferredValid = true
		c.deferredOpen = true
		return
	}
	if c.open {
		return
	}
	c.open = true
	// Completion indications that accumulated while CLOSED invoke the
	// handler immediately (§5.2.1).
	if !c.busy && len(c.completions) > 0 {
		ev := c.completions[0]
		c.completions = c.completions[1:]
		c.busy = true
		if hook, ok := c.intercept[ev.Asker.TID]; ok {
			delete(c.intercept, ev.Asker.TID)
			c.dispatch(ev, hook)
		} else {
			c.dispatch(ev, nil)
		}
		return
	}
	if !c.busy {
		c.node.releaseHeldInput()
	}
}

// Close implements CLOSE (§3.3.4).
func (c *Client) Close() {
	c.checkKilled()
	if c.inHandler {
		c.deferredValid = true
		c.deferredOpen = false
		return
	}
	c.open = false
}

// IsOpen reports the handler gate state visible to client code.
func (c *Client) IsOpen() bool { return c.open }

// gateTask blocks until the handler is idle; the task may only run then
// (§3.1: the task continues from the point of interruption).
func (c *Client) gateTask() {
	for c.busy && !c.dead {
		c.parkTask()
	}
	c.checkKilled()
}

func (c *Client) parkTask() {
	c.taskParked = true
	c.taskProc.Suspend()
	c.taskParked = false
	c.checkKilled()
}

// kickTask wakes a parked task (idempotent; safe when the task is running).
func (c *Client) kickTask() {
	if c.taskParked && c.taskProc.Suspended() {
		c.taskProc.Resume()
	}
}

// WaitUntil parks the task until cond holds; it stands in for the polling
// "while not done do idle()" loops of SODAL (§5.2.1): the IDLE instruction
// wakes on handler interrupts, which is exactly when cond is re-evaluated.
// It must be called from the task.
func (c *Client) WaitUntil(cond func() bool) {
	c.checkKilled()
	c.mustBeTask("WaitUntil")
	for {
		//lint:allow noalloc (indirect: caller-supplied polling condition, scanned at its creation site)
		if !c.busy && cond() {
			return
		}
		c.parkTask()
	}
}

// Hold advances virtual time for the calling process (device work,
// think(), etc.).
func (c *Client) Hold(d time.Duration) {
	c.checkKilled()
	p := c.currentProc()
	p.Hold(d)
	c.checkKilled()
	if c.inTaskContext(p) {
		c.gateTask()
	}
}

func (c *Client) mustBeTask(op string) {
	if !c.inTaskContext(c.currentProc()) {
		//lint:allow noalloc (cold: misuse panic)
		panic(fmt.Sprintf("core: %s called from the handler; blocking operations must issue from the task (§4.1.1)", op))
	}
}

// --- Naming primitives (§3.4) ---

// Advertise binds a client pattern to this client's handler.
func (c *Client) Advertise(p frame.Pattern) error {
	c.checkKilled()
	return c.node.Advertise(p)
}

// Unadvertise removes a client pattern.
func (c *Client) Unadvertise(p frame.Pattern) error {
	c.checkKilled()
	return c.node.Unadvertise(p)
}

// GetUniqueID returns a network-wide unique pattern (§3.4.2).
func (c *Client) GetUniqueID() frame.Pattern {
	c.checkKilled()
	return c.node.GetUniqueID()
}

// PatternTableFullError reports that a node's 256-slot pattern table (the
// §5.4 implementation restriction) had no free slot left for another unique
// advertisement. Node identifies the saturated machine; the machine's
// kernel also counts the rejection (Node.PatternTableFull), and
// soda.Network.Stats sums those counts into bus.Stats.PatternTableFull so
// saturation is observable across a whole network.
type PatternTableFullError struct {
	Node frame.MID
}

func (e *PatternTableFullError) Error() string {
	return fmt.Sprintf("core: node %d pattern table full (256 slots)", e.Node)
}

// AdvertiseUnique mints unique patterns until one lands in a free slot of
// the kernel's 8-bit-indexed pattern table, then advertises it. The §5.4
// implementation restriction makes a colliding advertisement silently
// overwrite the older entry; a careful server minting per-session entry
// points (file descriptors, link ends) avoids clobbering its well-known
// names this way. A saturated table yields a *PatternTableFullError.
func (c *Client) AdvertiseUnique() (frame.Pattern, error) {
	c.checkKilled()
	for i := 0; i < 256; i++ {
		p := c.node.GetUniqueID()
		if !c.node.slotTaken(p) {
			return p, c.node.Advertise(p)
		}
	}
	c.node.tableFull.Add(1)
	return 0, &PatternTableFullError{Node: c.node.mid}
}

// --- Message-passing primitives (§3.3) ---

// Request implements REQUEST: non-blocking; the handler is informed of
// completion. put supplies the put-buffer contents; getSize the get-buffer
// capacity.
func (c *Client) Request(dst frame.ServerSig, arg int32, put []byte, getSize int) (frame.TID, error) {
	c.checkKilled()
	c.charge()
	return c.node.issueRequest(dst, arg, put, getSize)
}

// Signal, Put, Get and Exchange are the four REQUEST variants (§3.3.2).
func (c *Client) Signal(dst frame.ServerSig, arg int32) (frame.TID, error) {
	return c.Request(dst, arg, nil, 0)
}

func (c *Client) Put(dst frame.ServerSig, arg int32, data []byte) (frame.TID, error) {
	return c.Request(dst, arg, data, 0)
}

func (c *Client) Get(dst frame.ServerSig, arg int32, getSize int) (frame.TID, error) {
	return c.Request(dst, arg, nil, getSize)
}

func (c *Client) Exchange(dst frame.ServerSig, arg int32, put []byte, getSize int) (frame.TID, error) {
	return c.Request(dst, arg, put, getSize)
}

// Accept implements ACCEPT (§3.3.2): blocking but bounded. put supplies
// data flowing server→requester; getCap bounds data taken requester→server.
func (c *Client) Accept(req frame.RequesterSig, arg int32, put []byte, getCap int) AcceptResult {
	c.checkKilled()
	c.charge()
	p := c.currentProc()
	st, data, putN, getN := c.node.acceptRequest(p, req, arg, getCap, put)
	c.checkKilled()
	if c.inTaskContext(p) {
		c.gateTask()
	}
	return AcceptResult{Status: st, Data: data, PutN: putN, GetN: getN}
}

// AcceptSignal/Put/Get/Exchange mirror the SODAL accept variants (§4.1.1).
// Directions are named from the requester's point of view: AcceptPut takes
// the requester's data; AcceptGet supplies data to the requester.
func (c *Client) AcceptSignal(req frame.RequesterSig, arg int32) AcceptResult {
	return c.Accept(req, arg, nil, 0)
}

func (c *Client) AcceptPut(req frame.RequesterSig, arg int32, getCap int) AcceptResult {
	return c.Accept(req, arg, nil, getCap)
}

func (c *Client) AcceptGet(req frame.RequesterSig, arg int32, data []byte) AcceptResult {
	return c.Accept(req, arg, data, 0)
}

func (c *Client) AcceptExchange(req frame.RequesterSig, arg int32, data []byte, getCap int) AcceptResult {
	return c.Accept(req, arg, data, getCap)
}

// Reject refuses a request: an ACCEPT with no data and argument −1
// (§4.1.2). The requester's blocking wrappers report StatusRejected.
func (c *Client) Reject(req frame.RequesterSig) AcceptResult {
	return c.Accept(req, -1, nil, 0)
}

// currentAsker returns the requester signature of the event being handled.
func (c *Client) currentAsker(op string) frame.RequesterSig {
	if c.curEvent == nil {
		panic(fmt.Sprintf("core: %s outside the handler (§4.1.2)", op))
	}
	return c.curEvent.Asker
}

// AcceptCurrent* complete the request that caused the current handler
// invocation (§4.1.2); they are only legal inside the handler.
func (c *Client) AcceptCurrentSignal(arg int32) AcceptResult {
	return c.AcceptSignal(c.currentAsker("AcceptCurrentSignal"), arg)
}

func (c *Client) AcceptCurrentPut(arg int32, getCap int) AcceptResult {
	return c.AcceptPut(c.currentAsker("AcceptCurrentPut"), arg, getCap)
}

func (c *Client) AcceptCurrentGet(arg int32, data []byte) AcceptResult {
	return c.AcceptGet(c.currentAsker("AcceptCurrentGet"), arg, data)
}

func (c *Client) AcceptCurrentExchange(arg int32, data []byte, getCap int) AcceptResult {
	return c.AcceptExchange(c.currentAsker("AcceptCurrentExchange"), arg, data, getCap)
}

// RejectCurrent rejects the request being handled.
func (c *Client) RejectCurrent() AcceptResult {
	return c.Reject(c.currentAsker("RejectCurrent"))
}

// Cancel implements CANCEL (§3.3.3): true only if the request had not
// completed; a completed (or completing) request always wins the race.
func (c *Client) Cancel(req frame.RequesterSig) bool {
	c.checkKilled()
	c.mustBeTask("Cancel")
	c.charge()
	ok := c.node.cancelRequest(c.taskProc, req)
	c.checkKilled()
	c.gateTask()
	return ok
}

// Die implements DIE (§3.5.1). It does not return.
func (c *Client) Die() {
	c.node.Die()
	panic(killedError{})
}

// --- Blocking request forms (§4.1.1) ---

// blockingCall issues a request and parks the task until it completes.
//
//lint:hotpath
func (c *Client) blockingCall(dst frame.ServerSig, arg int32, put []byte, getSize int) CallResult {
	c.checkKilled()
	c.mustBeTask("blocking request")
	tid, err := c.Request(dst, arg, put, getSize)
	if err != nil {
		// MAXREQUESTS pressure is the client's to manage (§4.1.2): wait
		// for an outstanding request to complete, then retry.
		for err == ErrTooManyRequests {
			outstanding := len(c.node.outstanding)
			//lint:allow noalloc (cold: MAXREQUESTS backpressure)
			c.WaitUntil(func() bool { return len(c.node.outstanding) < outstanding })
			tid, err = c.Request(dst, arg, put, getSize)
		}
		if err != nil {
			//lint:allow noalloc (cold: unrecoverable issue failure)
			panic(fmt.Sprintf("core: blocking request: %v", err))
		}
	}
	c.callOver = false
	//lint:allow noalloc (amortized: entries are deleted on completion, so the map stays at its peak size)
	c.intercept[tid] = c.callHook
	c.WaitUntil(c.callDone)
	res := c.callRes
	st := res.Status
	if st == StatusSuccess && res.Arg < 0 {
		st = StatusRejected // the REJECT convention (§4.1.2)
	}
	return CallResult{Status: st, Arg: res.Arg, Data: res.Data, PutN: res.PutN, GetN: res.GetN, TID: tid}
}

// endCall is the interception of a blocking request's completion.
//
//lint:hotpath
func (c *Client) endCall(ev Event) {
	c.callRes = ev
	c.callOver = true
}

// callEnded is the wait condition of a blocking request.
//
//lint:hotpath
func (c *Client) callEnded() bool { return c.callOver }

// BSignal is the blocking SIGNAL (B_SIGNAL, §4.1.1).
func (c *Client) BSignal(dst frame.ServerSig, arg int32) CallResult {
	return c.blockingCall(dst, arg, nil, 0)
}

// BPut is the blocking PUT.
func (c *Client) BPut(dst frame.ServerSig, arg int32, data []byte) CallResult {
	return c.blockingCall(dst, arg, data, 0)
}

// BGet is the blocking GET.
func (c *Client) BGet(dst frame.ServerSig, arg int32, getSize int) CallResult {
	return c.blockingCall(dst, arg, nil, getSize)
}

// BExchange is the blocking EXCHANGE.
func (c *Client) BExchange(dst frame.ServerSig, arg int32, put []byte, getSize int) CallResult {
	return c.blockingCall(dst, arg, put, getSize)
}

// --- DISCOVER (§3.4.4, §4.1.3) ---

// DiscoverAll broadcasts a pattern query and returns every machine that
// advertises it (up to max, bounded by the window).
func (c *Client) DiscoverAll(p frame.Pattern, max int) []frame.MID {
	if max <= 0 {
		max = 16
	}
	res := c.blockingCall(frame.ServerSig{MID: frame.BroadcastMID, Pattern: p}, OK, nil, max*2)
	if res.Status != StatusSuccess {
		return nil
	}
	return DecodeMIDList(res.Data)
}

// Discover blocks until one server advertising p is found, returning its
// signature; ok is false if the window closed with no responses.
func (c *Client) Discover(p frame.Pattern) (frame.ServerSig, bool) {
	mids := c.DiscoverAll(p, 1)
	if len(mids) == 0 {
		return frame.ServerSig{}, false
	}
	return frame.ServerSig{MID: mids[0], Pattern: p}, true
}
