package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The differential harness below runs one workload twice — on a plain
// sequential kernel (virtual shards, cross-shard hops become plain After
// calls) and on a parallel Coordinator — and requires the emission streams
// to be byte-identical. The workload mixes recursive event fan-out,
// same-time ties, RNG draws, cross-shard hops at the lookahead bound, and
// cooperative processes, so it exercises the order gate, the staging
// discipline and the barrier merge together.

const (
	tcShards    = 4
	tcLookahead = 2 * time.Millisecond
)

// testEnv abstracts "schedule and emit on shard s" so the same workload
// drives both schedulers.
type testEnv struct {
	emit  func(string)
	local func(d Time, fn func())
	cross func(dst int, d Time, fn func())
	rng   func(n int64) int64
	now   func() Time
}

func fanout(env func(shard int) testEnv, shard, depth, id int) func() {
	return func() {
		e := env(shard)
		r := e.rng(1000)
		e.emit(fmt.Sprintf("%v s%d d%d id%d r%d", e.now(), shard, depth, id, r))
		if depth >= 4 {
			return
		}
		n := (id+depth)%3 + 1
		for j := 0; j < n; j++ {
			cid := id*8 + j + 1
			if j == n-1 && (id+j)%2 == 0 {
				dst := (shard + 1) % tcShards
				e.cross(dst, tcLookahead+Time(j)*100*time.Microsecond,
					fanout(env, dst, depth+1, cid))
			} else {
				// Delta 0 at j==0 covers same-time self-scheduling ties.
				e.local(Time(j)*50*time.Microsecond,
					fanout(env, shard, depth+1, cid))
			}
		}
	}
}

func seqEnv(k *Kernel, log *[]string) func(int) testEnv {
	return func(int) testEnv {
		return testEnv{
			emit:  func(s string) { k.Buffer(func() { *log = append(*log, s) }) },
			local: func(d Time, fn func()) { k.After(d, fn) },
			// AfterCross on a coordinator-free kernel must be After exactly.
			cross: func(_ int, d Time, fn func()) { k.AfterCross(k, d, fn) },
			rng:   func(n int64) int64 { return k.Rand().Int63n(n) },
			now:   k.Now,
		}
	}
}

func parEnv(c *Coordinator, log *[]string) func(int) testEnv {
	return func(shard int) testEnv {
		k := c.Shard(shard)
		return testEnv{
			emit:  func(s string) { k.Buffer(func() { *log = append(*log, s) }) },
			local: func(d Time, fn func()) { k.After(d, fn) },
			cross: func(dst int, d Time, fn func()) { k.AfterCross(c.Shard(dst), d, fn) },
			rng:   func(n int64) int64 { return k.Rand().Int63n(n) },
			now:   k.Now,
		}
	}
}

func runSeqFanout(seed int64, deadline Time) []string {
	k := New(seed)
	var log []string
	env := seqEnv(k, &log)
	for s := 0; s < tcShards; s++ {
		s := s
		k.At(Time(s+1)*200*time.Microsecond, fanout(env, s, 0, s+1))
	}
	if err := k.RunUntil(deadline); err != nil {
		panic(err)
	}
	return log
}

func runParFanout(seed int64, workers int, shuffleSeed int64, deadline Time) ([]string, ParStats) {
	c := NewCoordinator(seed, tcShards, workers, tcLookahead)
	c.SetShuffle(shuffleSeed)
	var log []string
	env := parEnv(c, &log)
	for s := 0; s < tcShards; s++ {
		s := s
		c.Shard(s).At(Time(s+1)*200*time.Microsecond, fanout(env, s, 0, s+1))
	}
	if err := c.RunUntil(deadline); err != nil {
		panic(err)
	}
	return log, c.Stats()
}

func TestCoordinatorMatchesSequentialFanout(t *testing.T) {
	const deadline = 100 * time.Millisecond
	want := runSeqFanout(7, deadline)
	if len(want) == 0 {
		t.Fatal("workload emitted nothing")
	}
	for _, workers := range []int{1, 2, 8} {
		for _, shuffle := range []int64{0, 1, 42} {
			got, st := runParFanout(7, workers, shuffle, deadline)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("workers=%d shuffle=%d: parallel emission stream diverged\nseq %d lines, par %d lines",
					workers, shuffle, len(want), len(got))
			}
			if st.Windows == 0 || st.Committed == 0 {
				t.Fatalf("workers=%d: no parallel windows ran (stats %+v)", workers, st)
			}
			if st.Staged == 0 {
				t.Fatalf("workers=%d: no cross-window staging happened; workload too weak", workers)
			}
			if st.GatedOps == 0 {
				t.Fatalf("workers=%d: no gated RNG draws happened; workload too weak", workers)
			}
		}
	}
}

// TestCoordinatorShuffleFuzz is the fuzz-style commit-order race hunt: a
// single master seed derives a battery of shuffle seeds (seeded math/rand,
// never raw randomness — the failure set must be replayable), each of which
// perturbs the order in which worker goroutines pick up shard windows. Any
// commit-order dependence in the barrier merge or the order gate shows up
// as a diverged emission stream; the failing shuffle seed is printed so the
// race reproduces with -run and a one-line local edit.
func TestCoordinatorShuffleFuzz(t *testing.T) {
	const (
		deadline   = 100 * time.Millisecond
		masterSeed = 0x50DA
		rounds     = 20
	)
	want := runSeqFanout(masterSeed, deadline)
	if len(want) == 0 {
		t.Fatal("workload emitted nothing")
	}
	rng := rand.New(rand.NewSource(masterSeed))
	for i := 0; i < rounds; i++ {
		shuffle := rng.Int63()
		workers := 2 + rng.Intn(7) // 2..8: always genuinely concurrent
		got, st := runParFanout(masterSeed, workers, shuffle, deadline)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("round %d (workers=%d shuffle=%d): commit order leaked into the emission stream",
				i, workers, shuffle)
		}
		if st.Windows == 0 || st.Staged == 0 {
			t.Fatalf("round %d: workload degenerated (stats %+v)", i, st)
		}
	}
}

func TestCoordinatorMatchesSequentialProcs(t *testing.T) {
	const deadline = 50 * time.Millisecond
	holds := []Time{0, 300 * time.Microsecond, tcLookahead, 5 * time.Millisecond}
	run := func(spawn func(shard int, name string, fn func(*Proc)), env func(int) testEnv, drive func() error) []string {
		for s := 0; s < tcShards; s++ {
			s := s
			e := env(s)
			spawn(s, fmt.Sprintf("w%d", s), func(p *Proc) {
				for i := 0; i < 8; i++ {
					r := e.rng(100)
					e.emit(fmt.Sprintf("%v proc s%d i%d r%d", e.now(), s, i, r))
					p.Hold(holds[(s+i)%len(holds)])
				}
			})
		}
		if err := drive(); err != nil {
			panic(err)
		}
		return nil
	}
	var seqLog []string
	k := New(3)
	run(func(_ int, name string, fn func(*Proc)) { k.Spawn(name, fn) },
		seqEnv(k, &seqLog), func() error { return k.RunUntil(deadline) })

	for _, workers := range []int{2, 8} {
		var parLog []string
		c := NewCoordinator(3, tcShards, workers, tcLookahead)
		run(func(shard int, name string, fn func(*Proc)) { c.Shard(shard).Spawn(name, fn) },
			parEnv(c, &parLog), func() error { return c.RunUntil(deadline) })
		if strings.Join(parLog, "\n") != strings.Join(seqLog, "\n") {
			t.Fatalf("workers=%d: process emission stream diverged", workers)
		}
	}
	if len(seqLog) == 0 {
		t.Fatal("workload emitted nothing")
	}
}

// TestCoordinatorExclusiveGlobalEvents pins the single-threaded interleave:
// global-kernel events sharing a timestamp with shard events must commit in
// exactly the sequential tie-break order.
func TestCoordinatorExclusiveGlobalEvents(t *testing.T) {
	const deadline = 20 * time.Millisecond
	at := []Time{1 * time.Millisecond, 4 * time.Millisecond, 9 * time.Millisecond}

	var seqLog []string
	k := New(11)
	env := seqEnv(k, &seqLog)
	for s := 0; s < tcShards; s++ {
		s := s
		e := env(s)
		for i, tt := range at {
			s, i := s, i
			k.At(tt, func() {
				e.emit(fmt.Sprintf("%v shard s%d i%d r%d", e.now(), s, i, e.rng(50)))
			})
		}
	}
	for i, tt := range at {
		i := i
		k.At(tt, func() { seqLog = append(seqLog, fmt.Sprintf("%v global i%d r%d", k.Now(), i, k.Rand().Int63n(50))) })
	}
	if err := k.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}

	var parLog []string
	c := NewCoordinator(11, tcShards, 4, tcLookahead)
	penv := parEnv(c, &parLog)
	for s := 0; s < tcShards; s++ {
		s := s
		e := penv(s)
		for i, tt := range at {
			s, i := s, i
			c.Shard(s).At(tt, func() {
				e.emit(fmt.Sprintf("%v shard s%d i%d r%d", e.now(), s, i, e.rng(50)))
			})
		}
	}
	g := c.Global()
	for i, tt := range at {
		i := i
		g.At(tt, func() { parLog = append(parLog, fmt.Sprintf("%v global i%d r%d", g.Now(), i, g.Rand().Int63n(50))) })
	}
	if err := c.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if strings.Join(parLog, "\n") != strings.Join(seqLog, "\n") {
		t.Fatalf("global/shard tie interleave diverged:\nseq:\n%s\npar:\n%s",
			strings.Join(seqLog, "\n"), strings.Join(parLog, "\n"))
	}
	if st := c.Stats(); st.ExclusiveSteps == 0 {
		t.Fatalf("expected exclusive steps, got stats %+v", st)
	}
}

func TestCoordinatorCrossBelowLookaheadPanics(t *testing.T) {
	c := NewCoordinator(1, 2, 2, tcLookahead)
	c.Shard(0).At(time.Millisecond, func() {
		c.Shard(0).AfterCross(c.Shard(1), tcLookahead/2, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a lookahead-violation panic")
		}
		if !strings.Contains(fmt.Sprint(r), "inside the lookahead window") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_ = c.RunUntil(10 * time.Millisecond)
}

// TestCoordinatorAccessorsAndLimits covers the surface plumbing: the shard
// accessors agree, the event limit aborts a runaway parallel run exactly
// like the sequential kernel's, and the gated RNG source serves the whole
// rand.Source64 interface (Uint64 draws, reseeding) through the gate.
func TestCoordinatorAccessorsAndLimits(t *testing.T) {
	c := NewCoordinator(5, tcShards, 2, tcLookahead)
	ks := c.Shards()
	if len(ks) != tcShards {
		t.Fatalf("Shards() returned %d kernels, want %d", len(ks), tcShards)
	}
	for i := range ks {
		if ks[i] != c.Shard(i) {
			t.Fatalf("Shards()[%d] != Shard(%d)", i, i)
		}
	}
	if c.Global() == nil {
		t.Fatal("no global kernel")
	}

	// All shards share one run-level source: interleaved draws must advance
	// it (no two shards may ever see private streams), and reseeding through
	// one shard reproduces the draw.
	c.Shard(1).Rand().Seed(99)
	first := c.Shard(0).Rand().Uint64()
	if second := c.Shard(1).Rand().Uint64(); second == first {
		t.Fatalf("consecutive draws identical (%d); shards are not sharing the source", first)
	}
	c.Shard(1).Rand().Seed(99)
	if again := c.Shard(1).Rand().Uint64(); again != first {
		t.Fatalf("reseeded draw = %d, want %d", again, first)
	}

	// A runaway schedule trips the event limit mid-window.
	c2 := NewCoordinator(5, tcShards, 2, tcLookahead)
	c2.SetEventLimit(3)
	var tick func()
	tick = func() { c2.Shard(0).After(100*time.Microsecond, tick) }
	c2.Shard(0).After(0, tick)
	err := c2.RunUntil(time.Second)
	if err == nil || !strings.Contains(err.Error(), "event limit") {
		t.Fatalf("got %v, want event-limit error", err)
	}

	// The aborted run left shard clocks diverged (shard 0 ran, shard 1
	// never did) — exactly the single-threaded phase where AfterCross must
	// clamp a stale-clock schedule up to the destination's present instead
	// of scheduling into its past.
	if c2.Shard(1).Now() >= c2.Shard(0).Now() {
		t.Fatalf("clocks did not diverge: shard1 %v, shard0 %v", c2.Shard(1).Now(), c2.Shard(0).Now())
	}
	fired := false
	c2.Shard(1).AfterCross(c2.Shard(0), 0, func() { fired = true })
	c2.Shard(1).AfterCross(c2.Shard(1), 0, func() {}) // self-cross: plain At
	c2.SetEventLimit(0)
	if err := c2.RunUntil(c2.Shard(0).Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("clamped cross-shard event never ran")
	}
}

// TestCoordinatorRunUnboundedAndStop covers Kernel.Run parity: an
// unbounded run drains to completion (no deadline, no stall), global
// processes resume inside exclusive steps, and a Stop() from inside an
// event ends the run early exactly like the sequential kernel.
func TestCoordinatorRunUnboundedAndStop(t *testing.T) {
	c := NewCoordinator(3, 2, 2, tcLookahead)
	steps := 0
	c.Global().Spawn("pacer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Hold(tcLookahead / 2)
			steps++
		}
	})
	c.Shard(0).After(time.Millisecond, func() {})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("global process made %d steps, want 3", steps)
	}

	c2 := NewCoordinator(3, 2, 2, tcLookahead)
	ran := 0
	c2.Shard(0).After(time.Millisecond, func() { ran++; c2.Shard(0).Stop() })
	c2.Shard(1).After(time.Hour, func() { ran++ })
	if err := c2.RunUntil(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("%d events ran after Stop, want 1", ran)
	}
}

func TestCoordinatorIdleAndStallSemantics(t *testing.T) {
	// Bounded idle completes normally and parks the clocks at the deadline.
	c := NewCoordinator(1, 2, 2, tcLookahead)
	c.Shard(0).At(time.Millisecond, func() {})
	if err := c.RunUntil(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if now := c.Shard(i).Now(); now != 30*time.Millisecond {
			t.Fatalf("shard %d clock = %v, want deadline", i, now)
		}
	}
	// Unbounded with a suspended process stalls, like the sequential kernel.
	c2 := NewCoordinator(1, 2, 2, tcLookahead)
	c2.Shard(1).Spawn("stuck", func(p *Proc) { p.Suspend() })
	if err := c2.Run(); err != ErrStalled {
		t.Fatalf("got %v, want ErrStalled", err)
	}
}

// TestCoordinatorCloseEndsShardProcesses checks that a parallel run's
// processes — parked on a shard and on the global kernel — are unwound by
// Coordinator.Close, and that the finished ones' pooled goroutines were
// already released when RunUntil returned.
func TestCoordinatorCloseEndsShardProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCoordinator(1, 2, 2, tcLookahead)
	unwound := 0
	park := func(p *Proc) {
		defer func() { unwound++ }()
		p.Suspend()
	}
	c.Shard(0).Spawn("done", func(p *Proc) { p.Hold(time.Millisecond) })
	c.Shard(1).Spawn("parked", park)
	c.Global().Spawn("parked", park)
	if err := c.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, k := range c.all {
		if len(k.idle) != 0 {
			t.Fatalf("%d idle workers survived RunUntil", len(k.idle))
		}
	}
	c.Close()
	if unwound != 2 {
		t.Fatalf("%d parked processes unwound, want 2", unwound)
	}
	waitGoroutines(t, base)
}
