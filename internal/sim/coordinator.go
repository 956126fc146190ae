// Conservative parallel intra-run execution across bus-segment shards.
//
// A Coordinator owns one Kernel per bus segment plus a "global" kernel for
// whole-network work (Network.At closures, gateway chaos). It alternates two
// regimes:
//
//   - Parallel windows. With L = the cross-segment lookahead (the
//     internetwork's ForwardDelay: every gateway-relayed frame is scheduled
//     at least L into the future), all events with t in [T0, min(T0+L, next
//     global event)) are intra-segment by construction, so each shard may
//     run its own slice of the window concurrently (Chandy–Misra–Bryant
//     conservative synchronization).
//   - Exclusive steps. Whenever the global kernel has an event at the
//     horizon T0, every event at exactly T0 — across all shards — runs
//     single-threaded in canonical order, because global events may touch
//     any shard's state.
//
// Determinism contract: a parallel run must be byte-identical to the
// sequential run — same trace bytes, same observer streams, same RNG draws.
// Three mechanisms deliver that:
//
//   - Canonical order records. Every scheduled event carries an execRec
//     whose key (t, parent position, call index) reproduces the sequential
//     scheduler's (t, seq) tie-break: among equal-t events, sequential seq
//     order equals schedule-call order, which is (parent's commit position,
//     index of the At call within the parent). One monotone counter issues
//     both root positions (events scheduled outside any event, in
//     single-threaded contexts) and commit stamps, so the two interleave
//     exactly as they would chronologically in a sequential run.
//   - The order gate. Globally sequenced resources — the run's single
//     random stream, the internetwork directory and DISCOVER caches — are
//     touched only via Kernel.Gated, which blocks until every canonically
//     earlier event in every other shard has executed, then runs under one
//     mutex. The canonically least pending event never blocks, so the gate
//     cannot deadlock.
//   - Barrier commit. During a window each shard logs its executed events
//     and buffers their observable emissions (Kernel.Buffer); events
//     scheduled at or past the window end — including same-shard ones —
//     are staged rather than enqueued. At the barrier the logs are merged
//     in canonical order, commit stamps assigned, emissions replayed, and
//     staged events inserted with freshly resolved keys. Between windows,
//     every pending event everywhere has a fully resolved key.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// execRec is an event's canonical-order record. Key fields (t, parent or
// pstamp, idx) are immutable after creation; stamp is written only in
// single-threaded coordinator phases (exclusive steps, barriers), so
// concurrent cmpRec readers during a window never race.
type execRec struct {
	t      Time
	parent *execRec // in-window scheduling parent; nil once resolved
	pstamp uint64   // parent position when resolved (root or stamped parent)
	idx    uint64   // index of the scheduling call within the parent
	stamp  uint64   // global commit position; 0 = not yet committed
	// nextIdx counts scheduling calls made while this event executes; only
	// the owning shard touches it.
	nextIdx uint64
	// emits holds observable emissions (trace lines, observer events)
	// buffered during window execution for canonical-order replay.
	emits []func()
}

// pos resolves the record's parent position: roots carry it directly, and a
// child's becomes known once its parent is stamped.
func (r *execRec) pos() (uint64, bool) {
	if r.parent == nil {
		return r.pstamp, true
	}
	if s := r.parent.stamp; s != 0 {
		return s, true
	}
	return 0, false
}

// cmpRec compares two records in canonical order: time first, then parent
// position, then call index. A resolved parent position always precedes an
// unresolved one at equal t — the stamp counter is monotone, so an
// unstamped parent's future position exceeds every position already issued.
// Distinct unstamped parents are compared recursively; parent chains are
// finite (rooted in resolved pre-window records), so recursion terminates.
func cmpRec(a, b *execRec) int {
	if a == b {
		return 0
	}
	if a.t != b.t {
		if a.t < b.t {
			return -1
		}
		return 1
	}
	apos, aok := a.pos()
	bpos, bok := b.pos()
	switch {
	case aok && bok:
		if apos != bpos {
			return cmpU64(apos, bpos)
		}
		return cmpU64(a.idx, b.idx)
	case aok:
		return -1
	case bok:
		return 1
	default:
		if a.parent == b.parent {
			return cmpU64(a.idx, b.idx)
		}
		return cmpRec(a.parent, b.parent)
	}
}

func cmpU64(a, b uint64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// stagedEv is an event scheduled during a window whose commit must wait for
// the barrier: everything at or past the window end, and every cross-shard
// event.
type stagedEv struct {
	k    *Kernel
	rec  *execRec
	fn   func()
	proc *Proc
}

// parState links a kernel to its Coordinator. Fields below c/shard are
// owned by the shard's window goroutine while a window runs and by the
// coordinator between windows.
type parState struct {
	c         *Coordinator
	shard     int // index into c.shards; -1 for the global kernel
	winEnd    Time
	winActive bool
	curRec    *execRec
	log       []*execRec
	staged    []stagedEv
	processed uint64
}

// schedule files an event carrying a canonical-order record. Inside a
// window, same-shard events below the window end are pushed locally (local
// (t, seq) order provably equals canonical order restricted to the shard);
// everything else is staged for the barrier. Outside windows — setup,
// exclusive steps — scheduling is single-threaded and keys resolve
// immediately.
func (ps *parState) schedule(dst *Kernel, t Time, fn func(), proc *Proc, cross bool) {
	if ps.winActive {
		cur := ps.curRec
		if cur == nil {
			panic("sim: scheduling on a shard kernel from outside an event during a parallel window")
		}
		rec := &execRec{t: t, parent: cur, idx: cur.nextIdx}
		cur.nextIdx++
		if t < ps.winEnd {
			if cross {
				panic(fmt.Sprintf("sim: cross-segment event at t=%v inside the lookahead window ending at t=%v", t, ps.winEnd))
			}
			dst.pushLocal(t, fn, proc, rec)
			return
		}
		ps.staged = append(ps.staged, stagedEv{k: dst, rec: rec, fn: fn, proc: proc})
		return
	}
	c := ps.c
	if c.winPhase.Load() {
		panic("sim: scheduling outside the owning shard during a parallel window")
	}
	var rec *execRec
	if cur := c.curRec; cur != nil {
		rec = &execRec{t: t, pstamp: cur.stamp, idx: cur.nextIdx}
		cur.nextIdx++
	} else {
		c.counter++
		rec = &execRec{t: t, pstamp: c.counter}
	}
	dst.pushLocal(t, fn, proc, rec)
}

// pushLocal enqueues a fully formed event on this kernel.
func (k *Kernel) pushLocal(t Time, fn func(), proc *Proc, rec *execRec) {
	k.seq++
	ev := k.newEvent()
	ev.t, ev.seq, ev.fn, ev.proc, ev.rec = t, k.seq, fn, proc, rec
	k.events.push(ev)
}

// runWindow executes this shard's events strictly below end, publishing the
// gate frontier before each one and logging execution order for the
// barrier merge. It mirrors RunUntil's event dispatch, except that every
// process resume is a round trip: the process hands control back here
// when it yields, so the window's bookkeeping stays on this goroutine.
func (k *Kernel) runWindow(end Time) {
	ps := k.par
	c := ps.c
	ps.winEnd, ps.winActive = end, true
	gate := &c.gates[ps.shard]
	for !k.stopped {
		ev := k.events.peek()
		if ev == nil || ev.t >= end {
			break
		}
		ev = k.events.pop()
		k.now = ev.t
		ps.processed++
		rec := ev.rec
		gate.frontier.Store(rec)
		c.wake()
		ps.log = append(ps.log, rec)
		ps.curRec = rec
		switch {
		case ev.proc != nil:
			proc := ev.proc
			k.recycle(ev)
			if proc.finished {
				ps.curRec = nil
				continue // process died before its wakeup fired
			}
			k.current = proc
			proc.resume <- struct{}{}
			<-k.yield
			k.current = nil
		default:
			fn := ev.fn
			k.recycle(ev)
			fn()
		}
		ps.curRec = nil
	}
	ps.winActive = false
}

// shardGate publishes one shard's progress through the current window: the
// record it is executing (frontier) and whether it has finished (done).
type shardGate struct {
	frontier atomic.Pointer[execRec]
	done     atomic.Bool
}

// ParStats reports deterministic counters from a parallel run. Every field
// is a pure function of the simulated scenario (never of host timing), so
// it is safe to include in byte-compared artifacts.
type ParStats struct {
	Workers            int    // configured worker cap
	Windows            uint64 // parallel windows dispatched
	ExclusiveSteps     uint64 // single-threaded steps at global-event times
	Committed          uint64 // events committed through window barriers and exclusive steps
	Staged             uint64 // events staged to a barrier (cross-shard or beyond window end)
	GatedOps           uint64 // order-gated operations (RNG draws, directory ops)
	FallbackSequential bool   // set by the embedding layer when parallelism was requested but unusable
}

// Coordinator drives conservative parallel execution over per-segment
// kernels plus one global kernel. Construct with NewCoordinator, schedule
// setup work on the kernels, then call RunUntil.
type Coordinator struct {
	shards    []*Kernel
	glob      *Kernel
	all       []*Kernel // shards + glob
	lookahead Time
	limit     uint64
	processed uint64

	// counter issues root positions and commit stamps; curRec is the event
	// executing in an exclusive step. Both are touched only in
	// single-threaded phases.
	counter uint64
	curRec  *execRec

	winPhase atomic.Bool
	gates    []shardGate
	mu       sync.Mutex // order-gate mutex; also guards gatedOps
	cond     *sync.Cond
	waiters  atomic.Int32
	sem      chan struct{} // worker tokens; gate waiters release theirs while blocked
	gatedOps uint64

	shuffle *rand.Rand // optional seeded perturbation of window dispatch order
	cursors []int
	scratch []stagedEv
	stats   ParStats

	panicMu sync.Mutex
	panicV  any
}

// NewCoordinator builds a parallel scheduler with one kernel per shard
// (bus segment), a global kernel, at most workers shards executing
// concurrently, and the given cross-shard lookahead (must be positive; use
// the topology's ForwardDelay). All kernels share one seeded random stream,
// drawn in canonical order through the gate, so the run consumes the exact
// value sequence a sequential kernel with the same seed would.
func NewCoordinator(seed int64, shards, workers int, lookahead Time) *Coordinator {
	if shards < 1 {
		panic("sim: coordinator needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: coordinator needs positive lookahead")
	}
	if workers < 1 {
		workers = 1
	}
	c := &Coordinator{lookahead: lookahead}
	c.cond = sync.NewCond(&c.mu)
	c.sem = make(chan struct{}, workers)
	c.gates = make([]shardGate, shards)
	c.cursors = make([]int, shards)
	c.stats.Workers = workers
	src := rand.NewSource(seed).(rand.Source64)
	mk := func(shard int) *Kernel {
		k := newWithQueue(seed, newWheel())
		k.par = &parState{c: c, shard: shard}
		k.rng = rand.New(&gatedSource{k: k, src: src})
		return k
	}
	for i := 0; i < shards; i++ {
		c.shards = append(c.shards, mk(i))
	}
	c.glob = mk(-1)
	c.all = append(append(make([]*Kernel, 0, shards+1), c.shards...), c.glob)
	return c
}

// Shard returns the kernel owning bus segment i.
func (c *Coordinator) Shard(i int) *Kernel { return c.shards[i] }

// Shards returns the per-segment kernels, indexed by segment.
func (c *Coordinator) Shards() []*Kernel { return c.shards }

// Global returns the kernel for whole-network events (setup closures,
// gateway chaos); its events always run in exclusive single-threaded steps.
func (c *Coordinator) Global() *Kernel { return c.glob }

// SetEventLimit caps total events processed per RunUntil call, mirroring
// Kernel.SetEventLimit.
func (c *Coordinator) SetEventLimit(n uint64) { c.limit = n }

// Stats returns the deterministic parallel-run counters accumulated so far.
func (c *Coordinator) Stats() ParStats { return c.stats }

// SetShuffle seeds a deterministic perturbation of the order window jobs
// are handed to workers. Results are interleaving-independent by
// construction, so shuffling exists to hunt commit-order races in tests:
// different seeds exercise different worker schedules while every output
// stays byte-identical. Seed 0 restores the natural shard order.
func (c *Coordinator) SetShuffle(seed int64) {
	if seed == 0 {
		c.shuffle = nil
		return
	}
	c.shuffle = rand.New(rand.NewSource(seed))
}

// gatedSource adapts the run's shared random source to one kernel, routing
// every draw through the order gate so sequential and parallel runs consume
// the identical value stream.
type gatedSource struct {
	k   *Kernel
	src rand.Source64
}

func (g *gatedSource) Int63() int64 {
	var v int64
	g.k.Gated(func() { v = g.src.Int63() })
	return v
}

func (g *gatedSource) Uint64() uint64 {
	var v uint64
	g.k.Gated(func() { v = g.src.Uint64() })
	return v
}

func (g *gatedSource) Seed(seed int64) {
	g.k.Gated(func() { g.src.Seed(seed) })
}

// gated blocks until rec is canonically least among all unfinished shards'
// frontiers, then runs fn holding the gate mutex. A blocked waiter returns
// its worker token so an undispatched shard can make the progress being
// waited for; once passable, the condition is monotone for the rest of the
// window, so no re-check is needed after re-acquiring a token.
func (c *Coordinator) gated(shard int, rec *execRec, fn func()) {
	c.mu.Lock()
	if !c.mayPass(shard, rec) {
		<-c.sem
		c.waiters.Add(1)
		for !c.mayPass(shard, rec) {
			c.cond.Wait()
		}
		c.waiters.Add(-1)
		c.mu.Unlock()
		c.sem <- struct{}{}
		c.mu.Lock()
	}
	c.gatedOps++
	defer c.mu.Unlock()
	fn()
}

// mayPass reports whether rec may touch globally sequenced state: every
// other shard must be finished with the window or positioned at a
// canonically later event. A nil frontier means the shard has not started;
// its first event might precede rec, so the caller waits.
func (c *Coordinator) mayPass(shard int, rec *execRec) bool {
	for i := range c.gates {
		if i == shard {
			continue
		}
		g := &c.gates[i]
		if g.done.Load() {
			continue
		}
		f := g.frontier.Load()
		if f == nil || cmpRec(f, rec) <= 0 {
			return false
		}
	}
	return true
}

// wake broadcasts to gate waiters after a frontier advance; the
// waiter-count fast path keeps the per-event cost to one atomic load.
func (c *Coordinator) wake() {
	if c.waiters.Load() == 0 {
		return
	}
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Run processes events until none remain, mirroring Kernel.Run.
func (c *Coordinator) Run() error { return c.RunUntil(-1) }

// RunUntil drives all shards and the global kernel to the deadline (<0 =
// unbounded), alternating conservative parallel windows with exclusive
// single-threaded steps at global-event timestamps. Semantics mirror
// Kernel.RunUntil: events at exactly the deadline run, bounded idle is
// normal completion, and unbounded idle with live processes is ErrStalled.
// Like Kernel.RunUntil it releases on return the idle process goroutines of
// every kernel with no live process.
func (c *Coordinator) RunUntil(deadline Time) error {
	err := c.runUntil(deadline)
	for _, k := range c.all {
		k.releaseIdle()
	}
	return err
}

// Close ends every shard's and the global kernel's processes (see
// Kernel.Close). Call it once the last run has returned.
func (c *Coordinator) Close() {
	for _, k := range c.all {
		k.Close()
	}
}

func (c *Coordinator) runUntil(deadline Time) error {
	c.processed = 0
	for !c.anyStopped() {
		t0, ok := c.nextTime()
		if !ok {
			if deadline >= 0 {
				c.setNows(deadline)
				return nil
			}
			if c.liveProcs() > 0 {
				return ErrStalled
			}
			return nil
		}
		if deadline >= 0 && t0 > deadline {
			c.setNows(deadline)
			return nil
		}
		if gt, gok := c.glob.events.peekTime(); gok && gt == t0 {
			if err := c.exclusiveStep(t0); err != nil {
				return err
			}
			continue
		}
		end := t0 + c.lookahead
		if gt, gok := c.glob.events.peekTime(); gok && gt < end {
			end = gt
		}
		if deadline >= 0 && deadline+1 < end {
			end = deadline + 1
		}
		if err := c.runWindowAll(end); err != nil {
			return err
		}
	}
	return nil
}

func (c *Coordinator) anyStopped() bool {
	for _, k := range c.all {
		if k.stopped {
			return true
		}
	}
	return false
}

func (c *Coordinator) liveProcs() int {
	n := 0
	for _, k := range c.all {
		n += len(k.live)
	}
	return n
}

func (c *Coordinator) nextTime() (Time, bool) {
	var min Time
	found := false
	for _, k := range c.all {
		if t, ok := k.events.peekTime(); ok && (!found || t < min) {
			min, found = t, true
		}
	}
	return min, found
}

func (c *Coordinator) setNows(t Time) {
	for _, k := range c.all {
		if k.now < t {
			k.now = t
		}
	}
}

// exclusiveStep runs every event at exactly time t — across all shards and
// the global kernel — single-threaded in canonical order, stamping each as
// it commits. Global events may touch any shard's state, so the window
// machinery steps aside whenever one shares a timestamp with shard work.
func (c *Coordinator) exclusiveStep(t Time) error {
	c.stats.ExclusiveSteps++
	c.setNows(t)
	for !c.anyStopped() {
		var best *Kernel
		var bestRec *execRec
		for _, k := range c.all {
			ev := k.events.peek()
			if ev == nil || ev.t != t {
				continue
			}
			if bestRec == nil || cmpRec(ev.rec, bestRec) < 0 {
				best, bestRec = k, ev.rec
			}
		}
		if best == nil {
			return nil
		}
		ev := best.events.pop()
		c.processed++
		if c.limit > 0 && c.processed > c.limit {
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", c.limit, t)
		}
		c.counter++
		bestRec.stamp = c.counter
		c.curRec = bestRec
		k := best
		switch {
		case ev.proc != nil:
			proc := ev.proc
			k.recycle(ev)
			if !proc.finished {
				k.current = proc
				proc.resume <- struct{}{}
				<-k.yield
				k.current = nil
			}
		default:
			fn := ev.fn
			k.recycle(ev)
			fn()
		}
		c.curRec = nil
		c.stats.Committed++
	}
	return nil
}

// runWindowAll dispatches every shard with work below end to the worker
// pool (one goroutine per active shard, at most `workers` holding tokens at
// once), waits for quiescence, and commits the window at the barrier.
func (c *Coordinator) runWindowAll(end Time) error {
	var active []*Kernel
	for i, k := range c.shards {
		gate := &c.gates[i]
		if k.stopped {
			gate.done.Store(true)
			continue
		}
		if ev := k.events.peek(); ev != nil && ev.t < end {
			gate.done.Store(false)
			gate.frontier.Store(ev.rec)
			active = append(active, k)
		} else {
			gate.done.Store(true)
		}
	}
	if len(active) == 0 {
		return nil
	}
	c.stats.Windows++
	order := active
	if c.shuffle != nil && len(active) > 1 {
		order = append([]*Kernel(nil), active...)
		c.shuffle.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	c.winPhase.Store(true)
	var wg sync.WaitGroup
	for _, k := range order {
		wg.Add(1)
		go func(k *Kernel) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					c.panicMu.Lock()
					if c.panicV == nil {
						c.panicV = r
					}
					c.panicMu.Unlock()
				}
				c.gates[k.par.shard].done.Store(true)
				c.wake()
			}()
			c.sem <- struct{}{}
			defer func() { <-c.sem }()
			k.runWindow(end)
		}(k)
	}
	wg.Wait()
	c.winPhase.Store(false)
	if r := c.panicV; r != nil {
		c.panicV = nil
		panic(r)
	}
	return c.barrier(end)
}

// barrier merges the window's per-shard execution logs into canonical
// global order, assigning commit stamps and replaying buffered emissions,
// then resolves, sorts and inserts staged events. Afterwards every pending
// event everywhere carries a fully resolved order key. The merge is a
// linear scan over shard cursors: a log head's parent is always an earlier
// entry of the same log (in-window parents are same-shard), so heads
// compare resolved once their predecessors are stamped.
func (c *Coordinator) barrier(end Time) error {
	for {
		var rec *execRec
		src := -1
		for i, k := range c.shards {
			log := k.par.log
			ci := c.cursors[i]
			if ci >= len(log) {
				continue
			}
			if rec == nil || cmpRec(log[ci], rec) < 0 {
				rec, src = log[ci], i
			}
		}
		if rec == nil {
			break
		}
		c.cursors[src]++
		c.counter++
		rec.stamp = c.counter
		c.stats.Committed++
		for _, emit := range rec.emits {
			emit()
		}
		rec.emits = nil
	}
	staged := c.scratch[:0]
	for i, k := range c.shards {
		ps := k.par
		staged = append(staged, ps.staged...)
		for j := range ps.staged {
			ps.staged[j] = stagedEv{}
		}
		ps.staged = ps.staged[:0]
		for j := range ps.log {
			ps.log[j] = nil
		}
		ps.log = ps.log[:0]
		c.processed += ps.processed
		ps.processed = 0
		c.cursors[i] = 0
	}
	for _, se := range staged {
		r := se.rec
		if p := r.parent; p != nil {
			if p.stamp == 0 {
				panic("sim: staged event with unstamped parent at window barrier")
			}
			r.pstamp, r.parent = p.stamp, nil
		}
	}
	sort.Slice(staged, func(i, j int) bool { return cmpRec(staged[i].rec, staged[j].rec) < 0 })
	for _, se := range staged {
		se.k.pushLocal(se.rec.t, se.fn, se.proc, se.rec)
	}
	c.stats.Staged += uint64(len(staged))
	for i := range staged {
		staged[i] = stagedEv{}
	}
	c.scratch = staged[:0]
	c.stats.GatedOps += c.gatedOps
	c.gatedOps = 0
	if c.limit > 0 && c.processed > c.limit {
		return fmt.Errorf("sim: event limit %d exceeded at t=%v", c.limit, end)
	}
	return nil
}
