package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until runtime.NumGoroutine is at most want: a
// released or unwound goroutine exits asynchronously after handing back.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want at most %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWheelSlotStorageIsReused spreads events over many level-0 slots and
// requires the steady state to allocate nothing: each drained slot's array
// goes back to the wheel's spare list for the next empty slot to take.
func TestWheelSlotStorageIsReused(t *testing.T) {
	k := New(1)
	nop := func() {}
	slot := Time(1) << wheelShift(0)
	round := func() {
		// Start each round on a level-1 boundary so every round files its
		// events into the same 200 level-0 slots.
		base := (k.Now()>>wheelShift(1) + 1) << wheelShift(1)
		k.At(base, nop)
		if err := k.RunUntil(base); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			k.At(base+Time(i)*slot+slot/2, nop)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the event freelist, the spare list and the bucket
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f times per 200 events, want 0", a)
	}
	if n := len(k.events.(*wheel).spare); n > 200 {
		t.Fatalf("%d spare slot arrays retained, want at most the 200 slots ever occupied at once", n)
	}
}

// TestFinishedProcessesReuseGoroutines runs many short processes one after
// another and checks that they share pooled workers instead of each taking
// a goroutine, that a stale wake-up of a finished Proc is still skipped,
// and that the pool is released when RunUntil returns.
func TestFinishedProcessesReuseGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	var first *Proc
	ran := 0
	for i := 0; i < 100; i++ {
		k.At(Time(i)*time.Millisecond, func() {
			p := k.Spawn("short", func(p *Proc) {
				p.Hold(100 * time.Microsecond)
				ran++
			})
			if first == nil {
				first = p
			}
		})
	}
	var workers int
	k.At(time.Second, func() {
		workers = len(k.idle) + len(k.live)
		first.Resume() // finished long ago; its worker serves another Proc now
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("%d processes ran, want 100", ran)
	}
	if workers != 1 {
		t.Fatalf("%d workers served 100 sequential processes, want 1", workers)
	}
	if len(k.idle) != 0 || len(k.live) != 0 {
		t.Fatalf("after Run: %d idle and %d live workers, want none", len(k.idle), len(k.live))
	}
	waitGoroutines(t, base)
}

// TestSteppedRunKeepsWorkers drives a kernel the way the socket driver
// does, in many short RunUntil steps, with one process live throughout:
// short processes spawned one after another in different steps share one
// pooled worker instead of each starting a goroutine, and Close releases
// the pool with the live process.
func TestSteppedRunKeepsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	k.Spawn("live", (*Proc).Suspend)
	const spawns = 100
	workers := map[chan struct{}]bool{}
	for i := 0; i < spawns; i++ {
		k.At(Time(i)*time.Millisecond, func() {
			p := k.Spawn("short", func(p *Proc) { p.Hold(100 * time.Microsecond) })
			workers[p.resume] = true
		})
	}
	for step := Time(0); step <= spawns*time.Millisecond; step += 250 * time.Microsecond {
		if err := k.RunUntil(step); err != nil {
			t.Fatal(err)
		}
	}
	if len(workers) != 1 {
		t.Fatalf("%d workers served %d sequential processes across RunUntil steps, want 1", len(workers), spawns)
	}
	if len(k.live) != 1 || len(k.idle) != 1 {
		t.Fatalf("between steps: %d live and %d idle workers, want 1 and 1", len(k.live), len(k.idle))
	}
	k.Close()
	if len(k.live) != 0 || len(k.idle) != 0 {
		t.Fatalf("after Close: %d live and %d idle workers, want none", len(k.live), len(k.idle))
	}
	waitGoroutines(t, base)
}

// TestCloseUnwindsLiveProcesses leaves one process suspended, one holding
// and one spawned but never started, plus one whose deferred call blocks
// again, then closes the kernel: every deferred call runs, every process
// reads finished, and no goroutine survives.
func TestCloseUnwindsLiveProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	unwound := map[string]bool{}
	body := func(name string, block func(p *Proc)) func(*Proc) {
		return func(p *Proc) {
			defer func() { unwound[name] = true }()
			block(p)
			t.Errorf("%s ran past its blocking call", name)
		}
	}
	procs := []*Proc{
		k.Spawn("suspended", body("suspended", (*Proc).Suspend)),
		k.Spawn("holding", body("holding", func(p *Proc) { p.Hold(time.Hour) })),
		k.Spawn("blocking defer", func(p *Proc) {
			defer func() { unwound["blocking defer"] = true }()
			defer p.Hold(time.Millisecond) // blocks again while unwinding
			p.Suspend()
		}),
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	procs = append(procs, k.Spawn("unstarted", body("unstarted", (*Proc).Suspend)))
	if got := len(k.live); got != 4 {
		t.Fatalf("%d live processes before Close, want 4", got)
	}
	k.Close()
	for _, name := range []string{"suspended", "holding", "blocking defer"} {
		if !unwound[name] {
			t.Errorf("%s: deferred call did not run", name)
		}
	}
	if unwound["unstarted"] {
		t.Error("a never-started process ran its body")
	}
	for _, p := range procs {
		if !p.Finished() {
			t.Errorf("%s not finished after Close", p.Name())
		}
	}
	if len(k.live) != 0 || len(k.idle) != 0 {
		t.Fatalf("after Close: %d live and %d idle workers, want none", len(k.live), len(k.idle))
	}
	k.Close() // idempotent
	waitGoroutines(t, base)
}

func TestCloseFromInsideProcessPanics(t *testing.T) {
	k := New(1)
	var got any
	k.Spawn("closer", func(p *Proc) {
		defer func() { got = recover() }()
		k.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Close from inside a process did not panic")
	}
}
