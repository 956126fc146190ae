// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of the SODA reproduction runs under virtual time supplied by this
// package: the broadcast bus charges transmission time, the Delta-t protocol
// arms retransmission and connection timers, and client programs execute as
// cooperative processes. Determinism is achieved by running exactly one
// process at a time and by breaking event-time ties with a monotonically
// increasing sequence number.
//
// Control is a baton. The event loop runs on whichever goroutine holds it:
// the RunUntil caller, or a process goroutine that has just yielded. Event
// callbacks run inline on the holder; resuming the process that is already
// running costs nothing, and resuming another is one send on an unbuffered
// channel, after which the sender waits to be resumed itself. When the run
// ends, the holder hands control back to the RunUntil caller. A callback
// that panics on a process goroutine ends the run, and RunUntil re-raises
// the panic on the caller's goroutine; the process's own deferred calls
// never see it. Shards of a parallel Coordinator keep a round trip instead:
// every resume goes out from the shard's scheduling goroutine and comes
// back to it.
//
// Process goroutines are pooled: a finished process parks its goroutine,
// resume channel and grown stack for the next Spawn to reuse, so a handler
// invocation costs a Proc record rather than a goroutine. Every return from
// RunUntil (and Run) releases the parked goroutines, so a kernel dropped
// between runs keeps no idle goroutine alive; processes still suspended or
// holding when the caller is done are ended by Close, which unwinds each
// through its deferred calls.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Time is an instant of virtual time, measured as an offset from the start
// of the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// ErrStalled is returned by Run when runnable work remains impossible:
// processes are suspended but no event can ever wake them.
var ErrStalled = errors.New("sim: all processes suspended with no pending events")

// event is a scheduled occurrence: at time t, fn runs (scheduler context) or
// proc resumes (process context). Exactly one of fn/proc is set. Under a
// parallel Coordinator every event additionally carries its canonical-order
// record (see coordinator.go); rec is nil in plain sequential kernels.
type event struct {
	t    Time
	seq  uint64
	fn   func()
	proc *Proc
	rec  *execRec
}

// eventHeap orders events by (time, sequence); sequence breaks ties so that
// scheduling order is deterministic and FIFO at equal timestamps.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Kernel is a discrete-event scheduler with a virtual clock.
//
// A Kernel is not safe for concurrent use from multiple goroutines; all
// interaction must happen either before Run, or from within event callbacks
// and processes (which the Kernel serializes).
type Kernel struct {
	now    Time
	seq    uint64
	events eventQueue
	// yield hands control back to the goroutine waiting for it: the
	// RunUntil caller when a run ends on a process goroutine, the
	// coordinator shard's scheduling goroutine when its process yields,
	// and Close when a process has unwound.
	yield   chan struct{}
	rng     *rand.Rand
	current *Proc
	stopped bool
	closing bool   // set by Close: resumed processes unwind instead of running on
	limit   uint64 // safety valve on total events processed; 0 = unlimited
	// The state of the run in progress, kept here rather than in RunUntil's
	// frame because the loop runs on whichever goroutine holds control:
	// its deadline, its event count, its result, and a callback panic
	// caught on a process goroutine for RunUntil to re-raise.
	deadline  Time
	processed uint64
	runErr    error
	panicVal  any // never nil for a real panic since go 1.21
	// free recycles event structs: every Hold, timer and delivery allocates
	// one, so the scheduler's steady-state allocation rate would otherwise
	// scale with event throughput. The freelist is bounded by the peak
	// number of simultaneously pending events.
	free []*event
	// live lists the workers running a spawned, unfinished process (each
	// knows its index); idle parks the workers of finished processes for
	// Spawn to reuse until the next return from RunUntil releases them.
	live []*worker
	idle []*worker
	// par is non-nil when this kernel is one shard of a parallel
	// Coordinator (or its global kernel); it routes scheduling through the
	// canonical-order machinery in coordinator.go. Nil for plain kernels,
	// which keeps every sequential code path byte-identical to before.
	par *parState
}

// New returns a Kernel whose random source is seeded deterministically. The
// pending-event store is a hierarchical timer wheel (see wheel.go); its
// event ordering is byte-identical to the binary heap it replaced, which
// wheel_test.go keeps as an oracle and substitutes through newWithQueue.
func New(seed int64) *Kernel { return newWithQueue(seed, newWheel()) }

func newWithQueue(seed int64, q eventQueue) *Kernel {
	return &Kernel{
		events: q,
		yield:  make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Current reports the process currently executing, or nil in scheduler
// (event-callback) context. A blocking call made from inside a process must
// suspend that exact process; Current is the authoritative identity.
func (k *Kernel) Current() *Proc { return k.current }

// Rand exposes the kernel's deterministic random source. All randomness in
// the simulation (loss injection, backoff jitter, pattern generation) must
// come from here so runs are reproducible from the seed.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// SetEventLimit caps the total number of events processed by Run; exceeding
// it makes Run return an error. Zero means unlimited. It exists to turn
// accidental livelock (e.g. two kernels retransmitting at each other
// forever) into a test failure instead of a hang.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// At schedules fn to run in scheduler context at absolute virtual time t.
// Times in the past are clamped to now.
//
// The segqueue marker designates closures scheduled here as the sanctioned
// deferred path out of segment-handler code: each runs as its own
// serialized event, which is what a conservative parallel scheduler can
// order by lookahead (see the sodavet segshare analyzer).
//
//lint:segqueue
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	if k.par != nil {
		//lint:allow noalloc (cold: parallel-mode scheduling is outside the sequential hot path)
		k.par.schedule(k, t, fn, nil, false)
		return
	}
	k.seq++
	ev := k.newEvent()
	ev.t, ev.seq, ev.fn = t, k.seq, fn
	k.events.push(ev)
}

// newEvent takes an event struct from the freelist, or allocates one.
func (k *Kernel) newEvent() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free = k.free[:n-1]
		return ev
	}
	//lint:allow noalloc (counted: freelist miss; one event struct per new peak of pending events)
	return &event{}
}

// recycle returns a fully consumed event to the freelist, clearing it so
// the retained fn closure and proc become collectable immediately.
func (k *Kernel) recycle(ev *event) {
	*ev = event{}
	//lint:allow noalloc (amortized: the freelist grows to the peak number of pending events)
	k.free = append(k.free, ev)
}

// After schedules fn to run d from now. Negative d is clamped to zero.
//
//lint:segqueue
func (k *Kernel) After(d time.Duration, fn func()) { k.At(k.now+d, fn) }

// AfterCross schedules fn to run d from now on kernel dst. It is the one
// sanctioned way to move work between bus-segment shards: under a parallel
// Coordinator the event is staged and committed at the next window barrier
// in canonical order, and d below the coordinator's lookahead is a
// violation of the conservative synchronization contract (it panics rather
// than silently reordering history). When dst is the calling kernel, or the
// kernel is not running under a Coordinator, this is exactly At(now+d, fn).
//
//lint:segqueue
func (k *Kernel) AfterCross(dst *Kernel, d time.Duration, fn func()) {
	if dst == k || k.par == nil {
		dst.At(k.now+d, fn)
		return
	}
	t := k.now + d
	// Clamp to the destination clock only in single-threaded phases: during
	// a window t >= winEnd > dst.now by the lookahead invariant, and reading
	// another shard's live clock would race.
	if !k.par.winActive && t < dst.now {
		t = dst.now
	}
	//lint:allow noalloc (cold: cross-shard staging is outside the sequential hot path)
	k.par.schedule(dst, t, fn, nil, true)
}

// Buffer defers fn to the next parallel window barrier, where it replays in
// the canonical (sequential-equivalent) commit order of the event that
// buffered it. Outside a parallel window — plain kernels, exclusive steps,
// setup code — fn runs immediately, which is already canonical order.
// The network's event stream goes through here so parallel runs produce
// byte-identical output streams.
func (k *Kernel) Buffer(fn func()) {
	if ps := k.par; ps != nil && ps.winActive && ps.curRec != nil {
		ps.curRec.emits = append(ps.curRec.emits, fn)
		return
	}
	fn()
}

// Gated runs fn under the coordinator's order gate: fn waits until every
// event that canonically precedes the current one (in any shard) has
// executed, then runs under a global mutex. Shared sequenced resources —
// the kernel RNG stream, the internetwork directory and DISCOVER caches —
// go through here so parallel runs consume and mutate them in exactly the
// sequential order. Outside a parallel window fn runs immediately.
func (k *Kernel) Gated(fn func()) {
	ps := k.par
	if ps == nil || !ps.winActive || ps.curRec == nil {
		fn()
		return
	}
	ps.c.gated(ps.shard, ps.curRec, fn)
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// PeekNext reports the virtual time of the earliest pending event, if any.
// The real-socket backend's driver uses it to sleep exactly until the next
// transport timer would fire instead of polling the queue.
func (k *Kernel) PeekNext() (Time, bool) { return k.events.peekTime() }

// Run processes events until none remain, Stop is called, or the event limit
// is exceeded. If processes remain suspended when the event queue drains,
// Run returns ErrStalled so deadlocks in client programs surface as errors.
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil is Run bounded by an absolute virtual deadline; a negative
// deadline means "no deadline". Events at exactly the deadline still run.
// On return the idle process goroutines are released (see releaseIdle).
func (k *Kernel) RunUntil(deadline Time) error {
	if k.par != nil {
		panic("sim: RunUntil on a coordinator-managed kernel; drive the Coordinator instead")
	}
	k.deadline, k.processed, k.runErr = deadline, 0, nil
	if !k.loop(nil) {
		<-k.yield // the run ended on a process goroutine
		if v := k.panicVal; v != nil {
			k.panicVal = nil
			panic(v)
		}
	}
	err := k.runErr
	k.runErr = nil
	k.releaseIdle()
	return err
}

// loop runs the event loop on the calling goroutine, which holds control,
// until control leaves it. self is the resume channel of the calling
// process goroutine, nil on the RunUntil caller. loop reports whether
// control is still here when it returns: on a process goroutine, the next
// event resumes that goroutine's own process; on the caller, the run is
// over. Otherwise control has passed to another process goroutine, or from
// a process goroutine back to the caller, and the calling goroutine must
// wait on self (the caller on k.yield).
//
// A panic in a callback run on a process goroutine is caught here, before
// any deferred call of that process can recover it, and handed to the
// caller with control.
func (k *Kernel) loop(self chan struct{}) (here bool) {
	if self != nil {
		//lint:allow noalloc (unproven: the deferred closure does not escape, so the compiler keeps it on the stack; TestRequestRoundTripAllocBudget measures it)
		defer func() {
			if v := recover(); v != nil {
				k.panicVal = v
				k.yield <- struct{}{}
				here = false
			}
		}()
	}
	k.current = nil
	for {
		ev := k.next()
		if ev == nil {
			if self == nil {
				return true
			}
			k.yield <- struct{}{}
			return false
		}
		if proc := ev.proc; proc != nil {
			k.recycle(ev) // the resumed process may schedule new events
			if proc.finished {
				continue // process died before its wakeup fired
			}
			k.current = proc
			if proc.resume == self {
				return true
			}
			proc.resume <- struct{}{}
			return false
		}
		fn := ev.fn
		k.recycle(ev) // fn may schedule new events
		//lint:allow noalloc (indirect: event callbacks; hot-path callbacks are scanned at their scheduling sites)
		fn()
	}
}

// next pops the run's next event and advances the clock to it. It returns
// nil when the run is over, with the run's result in k.runErr.
func (k *Kernel) next() *event {
	if k.events.len() == 0 || k.stopped {
		k.runErr = k.settle()
		return nil
	}
	if k.deadline >= 0 {
		if t, ok := k.events.peekTime(); ok && t > k.deadline {
			k.now = k.deadline
			return nil
		}
	}
	ev := k.events.pop()
	k.now = ev.t
	k.processed++
	if k.limit > 0 && k.processed > k.limit {
		//lint:allow noalloc (cold: the event limit ends the run)
		k.runErr = fmt.Errorf("sim: event limit %d exceeded at t=%v", k.limit, k.now)
		return nil
	}
	return ev
}

// settle is the result of a run whose events ran out or that was stopped.
func (k *Kernel) settle() error {
	if k.deadline >= 0 {
		// Bounded runs treat idle (e.g. server processes parked waiting
		// for requests that never come) as normal completion.
		if !k.stopped && k.now < k.deadline {
			k.now = k.deadline
		}
		return nil
	}
	if len(k.live) > 0 && !k.stopped {
		return ErrStalled
	}
	return nil
}

// releaseIdle ends the parked goroutines of finished processes. Pooling pays
// off within a run; between runs a kernel the caller drops without Close
// must not keep goroutines alive.
func (k *Kernel) releaseIdle() {
	for i, w := range k.idle {
		close(w.resume)
		k.idle[i] = nil
	}
	k.idle = k.idle[:0]
}

// Close ends the simulation. Every live process — suspended, holding, or
// spawned but not yet started — is resumed into runtime.Goexit, so its
// deferred calls run and its goroutine exits, and then the idle goroutines
// are released. Call it from outside any process once the last run has
// returned; the kernel must not be run again. Close is idempotent.
func (k *Kernel) Close() {
	if k.current != nil {
		panic("sim: Close from inside a process")
	}
	k.closing = true
	// A deferred call may spawn while unwinding; the loop ends those too.
	for len(k.live) > 0 {
		w := k.live[len(k.live)-1]
		k.current = w.p
		w.resume <- struct{}{}
		<-k.yield
		k.current = nil
	}
	k.releaseIdle()
}

// Proc is a cooperative simulation process. Exactly one Proc (or the
// scheduler) runs at any instant; a Proc relinquishes control only inside
// Hold, Suspend, or by returning. A Proc is one spawn: its goroutine is
// pooled, but the record is not, so a stale wake-up addressed to a finished
// Proc is recognized by its finished flag and skipped.
type Proc struct {
	k        *Kernel
	name     string
	resume   chan struct{} // the running worker's channel
	finished bool
	waiting  bool // suspended, awaiting Resume
}

// worker is a pooled process goroutine (see serve). p and fn are the process
// it runs, nil while it is parked on the idle list; slot is its index in
// Kernel.live while it runs one.
type worker struct {
	resume chan struct{}
	p      *Proc
	fn     func(*Proc)
	slot   int
}

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. fn runs entirely under the scheduler's control.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	w := k.takeWorker()
	//lint:allow noalloc (counted: one process record per spawn; the goroutine and channel are pooled)
	p := &Proc{k: k, name: name, resume: w.resume}
	w.p, w.fn, w.slot = p, fn, len(k.live)
	//lint:allow noalloc (amortized: the live list grows to the peak number of concurrent processes)
	k.live = append(k.live, w)
	k.scheduleProc(p, k.now)
	return p
}

// takeWorker reuses a parked process goroutine, or starts one.
func (k *Kernel) takeWorker() *worker {
	if n := len(k.idle); n > 0 {
		w := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		return w
	}
	//lint:allow noalloc (amortized: one worker and resume channel per new peak of concurrent processes)
	w := &worker{resume: make(chan struct{})}
	//lint:allow noalloc (amortized: one goroutine per new peak of concurrent processes)
	go k.serve(w)
	return w
}

// serve is a worker goroutine's loop: each value on resume starts the
// process it was given, and a finished process parks the worker on the idle
// list before passing control on. Closing resume (releaseIdle) ends it.
func (k *Kernel) serve(w *worker) {
	defer func() {
		if w.p != nil && k.closing {
			// Close unwound the process with runtime.Goexit; the goroutine
			// ends with it, after handing control back.
			k.retire(w)
			k.yield <- struct{}{}
		}
	}()
	for range w.resume {
		for {
			if k.closing {
				//lint:allow noalloc (cold: teardown of a process Close found spawned but not started)
				runtime.Goexit()
			}
			//lint:allow noalloc (indirect: the process body; hot-path bodies are scanned at their creation sites)
			w.fn(w.p)
			k.retire(w)
			//lint:allow noalloc (amortized: the idle list grows to the peak number of concurrent processes)
			k.idle = append(k.idle, w)
			if k.par != nil {
				k.yield <- struct{}{}
				break
			}
			// Run on as the holder of control. If the loop starts a new
			// process on this very worker, it runs it here.
			if !k.loop(w.resume) {
				break
			}
		}
	}
}

// retire marks w's process finished and removes w from the live list.
func (k *Kernel) retire(w *worker) {
	w.p.finished = true
	last := len(k.live) - 1
	moved := k.live[last]
	moved.slot = w.slot
	k.live[w.slot] = moved
	k.live[last] = nil
	k.live = k.live[:last]
	w.p, w.fn = nil, nil
}

func (k *Kernel) scheduleProc(p *Proc, t Time) {
	if k.par != nil {
		//lint:allow noalloc (cold: parallel-mode scheduling is outside the sequential hot path)
		k.par.schedule(k, t, nil, p, false)
		return
	}
	k.seq++
	ev := k.newEvent()
	ev.t, ev.seq, ev.proc = t, k.seq, p
	k.events.push(ev)
}

// Name reports the name given at Spawn, for traces and error messages.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning simulation kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports current virtual time (convenience for p.Kernel().Now()).
func (p *Proc) Now() Time { return p.k.now }

// Hold blocks the process for virtual duration d. Negative d holds for 0,
// which still yields to other same-time events (a cooperative "yield").
func (p *Proc) Hold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.scheduleProc(p, p.k.now+d)
	p.yieldAndWait()
}

// Suspend blocks the process until another party calls Resume. Calling
// Resume before Suspend is an error in the caller's logic and will deadlock
// the simulation (surfaced by Run as ErrStalled).
func (p *Proc) Suspend() {
	p.waiting = true
	p.yieldAndWait()
	p.waiting = false
}

// Resume schedules a Suspend-ed process to continue at the current virtual
// time. It must be called from scheduler context or from another process.
// Resuming a process that is not suspended panics: it indicates lost-wakeup
// bookkeeping in the caller.
func (p *Proc) Resume() {
	if p.finished {
		return
	}
	if !p.waiting {
		//lint:allow noalloc (cold: lost-wakeup bookkeeping panic)
		panic(fmt.Sprintf("sim: Resume of %q which is not suspended", p.name))
	}
	p.waiting = false // consume the wakeup; a second Resume before it runs panics
	p.k.scheduleProc(p, p.k.now)
}

// Suspended reports whether the process is currently blocked in Suspend.
func (p *Proc) Suspended() bool { return p.waiting }

// Finished reports whether the process function has returned, or Close has
// unwound it.
func (p *Proc) Finished() bool { return p.finished }

func (p *Proc) yieldAndWait() {
	k := p.k
	if k.closing {
		// A deferred call blocked while Close unwinds this process.
		//lint:allow noalloc (cold: teardown; Close is ending the run)
		runtime.Goexit()
	}
	if k.par != nil {
		k.yield <- struct{}{} // a coordinator shard takes control back on every yield
	} else if k.loop(p.resume) {
		return // nothing else was due first: run on without a switch
	}
	<-p.resume
	if k.closing {
		//lint:allow noalloc (cold: teardown; Close resumes every live process into Goexit)
		runtime.Goexit()
	}
}
