package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// heapQueue adapts eventHeap to the eventQueue interface: the original
// binary-heap scheduler, O(log n) insert and pop, kept here as the reference
// ordering the differential tests hold the wheel to.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) pop() *event { return heap.Pop(&q.h).(*event) }

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) peekTime() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].t, true
}

func (q *heapQueue) len() int { return len(q.h) }

// drain pops a queue to exhaustion and returns the (t, seq) order.
func drain(q eventQueue) [][2]uint64 {
	var out [][2]uint64
	for q.len() > 0 {
		ev := q.pop()
		out = append(out, [2]uint64{uint64(ev.t), ev.seq})
	}
	return out
}

func sameOrder(t *testing.T, want, got [][2]uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("length mismatch: heap %d, wheel %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("divergence at pop %d: heap (t=%d, seq=%d), wheel (t=%d, seq=%d)",
				i, want[i][0], want[i][1], got[i][0], got[i][1])
		}
	}
}

// TestWheelVsHeapDifferential is TestHeapOrderingProperty ported to a
// differential harness: random insertion orders go into both the reference
// heap and the timer wheel, and the two must pop the exact same (time, seq)
// sequence — including FIFO tie-breaks at equal timestamps. peek (the
// parallel coordinator's window-head probe) must agree with the next pop
// on both queues, without consuming it.
func TestWheelVsHeapDifferential(t *testing.T) {
	f := func(times []uint16) bool {
		hq, wq := &heapQueue{}, newWheel()
		if hq.peek() != nil || wq.peek() != nil {
			return false
		}
		for i, v := range times {
			tm := Time(v) * time.Microsecond
			hq.push(&event{t: tm, seq: uint64(i)})
			wq.push(&event{t: tm, seq: uint64(i)})
		}
		if len(times) > 0 {
			hp, wp := hq.peek(), wq.peek()
			if hp == nil || wp == nil || hp.t != wp.t || hp.seq != wp.seq {
				return false
			}
			if hq.len() != len(times) || wq.len() != len(times) {
				return false // peek consumed an event
			}
		}
		h, w := drain(hq), drain(wq)
		if len(h) != len(w) {
			return false
		}
		for i := range h {
			if h[i] != w[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWheelVsHeapInterleaved drives both queues through the same random
// interleaving of pushes and pops, mimicking the kernel's discipline (new
// events are never scheduled before the last popped time). The wide delta
// distribution exercises every wheel level and the overflow list.
func TestWheelVsHeapInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	hq, wq := &heapQueue{}, newWheel()
	var now Time
	var seq uint64
	for op := 0; op < 20000; op++ {
		if hq.len() != wq.len() {
			t.Fatalf("op %d: size mismatch heap=%d wheel=%d", op, hq.len(), wq.len())
		}
		if hq.len() == 0 || rng.Intn(3) != 0 {
			// Deltas span sub-slot (ns) to beyond the top level (days).
			delta := Time(rng.Int63n(int64(1) << uint(4+rng.Intn(44))))
			if rng.Intn(8) == 0 {
				delta = 0 // same-instant scheduling is the common kernel case
			}
			seq++
			hq.push(&event{t: now + delta, seq: seq})
			wq.push(&event{t: now + delta, seq: seq})
			continue
		}
		he, we := hq.pop(), wq.pop()
		if he.t != we.t || he.seq != we.seq {
			t.Fatalf("op %d: heap popped (t=%v, seq=%d), wheel popped (t=%v, seq=%d)",
				op, he.t, he.seq, we.t, we.seq)
		}
		if ht, hok := hq.peekTime(); hok {
			wt, wok := wq.peekTime()
			if !wok || wt != ht {
				t.Fatalf("op %d: peek mismatch heap=(%v,%v) wheel=(%v,%v)", op, ht, hok, wt, wok)
			}
		}
		now = he.t
	}
	sameOrder(t, drain(hq), drain(wq))
}

// TestWheelPushBelowCursorAfterPeek pins the RunUntil boundary case: a peek
// past the deadline advances the wheel's cursor toward a far-future event,
// and a later push lands before that cursor. The push must join the loaded
// bucket so ordering is preserved.
func TestWheelPushBelowCursorAfterPeek(t *testing.T) {
	w := newWheel()
	w.push(&event{t: time.Hour, seq: 1})
	if tm, ok := w.peekTime(); !ok || tm != time.Hour {
		t.Fatalf("peekTime = (%v, %v), want (1h, true)", tm, ok)
	}
	// The kernel clamps to now (well before the hour mark); this push lands
	// below the wheel's advanced cursor.
	w.push(&event{t: time.Millisecond, seq: 2})
	w.push(&event{t: time.Hour, seq: 3})
	got := drain(w)
	want := [][2]uint64{
		{uint64(time.Millisecond), 2},
		{uint64(time.Hour), 1},
		{uint64(time.Hour), 3},
	}
	sameOrder(t, want, got)
}

// TestKernelWheelVsHeapTrace runs the same randomized workload (timers that
// re-arm, processes that hold and spawn) on a wheel-backed and a heap-backed
// kernel and requires identical execution traces.
func TestKernelWheelVsHeapTrace(t *testing.T) {
	run := func(k *Kernel) []Time {
		var trace []Time
		tick := func(d time.Duration) {
			var fn func()
			n := 0
			fn = func() {
				trace = append(trace, k.Now())
				if n++; n < 50 {
					k.After(d+Time(k.Rand().Int63n(int64(5*time.Millisecond))), fn)
				}
			}
			k.After(d, fn)
		}
		tick(17 * time.Microsecond)
		tick(3 * time.Millisecond)
		tick(900 * time.Millisecond) // crosses level-2 slots
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 30; j++ {
					p.Hold(time.Duration(i*7+j) * 250 * time.Microsecond)
					trace = append(trace, k.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	wheelTrace := run(New(42))
	heapTrace := run(newWithQueue(42, &heapQueue{}))
	if len(wheelTrace) != len(heapTrace) {
		t.Fatalf("trace length: wheel %d, heap %d", len(wheelTrace), len(heapTrace))
	}
	for i := range wheelTrace {
		if wheelTrace[i] != heapTrace[i] {
			t.Fatalf("traces diverge at step %d: wheel %v, heap %v", i, wheelTrace[i], heapTrace[i])
		}
	}
}

// TestKernelRunUntilStepsMatchHeap steps both kernels through repeated
// RunUntil windows with fresh events scheduled between windows — the pattern
// the sweep engine uses, and the one that pushes events below the wheel
// cursor after a deadline peek.
func TestKernelRunUntilStepsMatchHeap(t *testing.T) {
	run := func(k *Kernel) []Time {
		var trace []Time
		k.After(2*time.Second, func() { trace = append(trace, k.Now()) }) // far future
		for step := 1; step <= 20; step++ {
			for i := 0; i < 5; i++ {
				d := time.Duration(i*i) * 13 * time.Microsecond
				k.After(d, func() { trace = append(trace, k.Now()) })
			}
			if err := k.RunUntil(Time(step) * 10 * time.Millisecond); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	wheelTrace := run(New(7))
	heapTrace := run(newWithQueue(7, &heapQueue{}))
	if len(wheelTrace) != len(heapTrace) {
		t.Fatalf("trace length: wheel %d, heap %d", len(wheelTrace), len(heapTrace))
	}
	for i := range wheelTrace {
		if wheelTrace[i] != heapTrace[i] {
			t.Fatalf("traces diverge at step %d: wheel %v, heap %v", i, wheelTrace[i], heapTrace[i])
		}
	}
}

// TestWheelOverflowAndCascade drives the deep paths: events past the top
// level's 2^48ns span land on the overflow list, and draining them forces
// the clock-jump refill plus multi-level cascades. The heap is the oracle.
func TestWheelOverflowAndCascade(t *testing.T) {
	hq := &heapQueue{}
	wq := newWheel()
	deltas := []Time{
		0,
		1 << wheelBaseShift,                     // level 0 boundary
		1 << wheelShift(1),                      // level 1
		1 << wheelShift(2),                      // level 2
		1 << wheelShift(3),                      // level 3
		1<<wheelShift(4) - 1,                    // last representable before overflow
		1 << wheelShift(4),                      // first overflow
		3 << wheelShift(4),                      // deep overflow
		5<<wheelShift(4) + 12345,                // deep overflow, unaligned
		1<<wheelShift(4) + 7<<wheelShift(2) + 3, // overflow that re-files mid-levels
	}
	for i, d := range deltas {
		hq.push(&event{t: d, seq: uint64(i)})
		wq.push(&event{t: d, seq: uint64(i)})
	}
	if got, want := wq.len(), hq.len(); got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	for hq.len() > 0 {
		ht, _ := hq.peekTime()
		wt, ok := wq.peekTime()
		if !ok || ht != wt {
			t.Fatalf("peek diverged: heap %v, wheel %v (ok=%v)", ht, wt, ok)
		}
		he, we := hq.pop(), wq.pop()
		if he.t != we.t || he.seq != we.seq {
			t.Fatalf("pop diverged: heap (%v,%d), wheel (%v,%d)", he.t, he.seq, we.t, we.seq)
		}
	}
	if ev := wq.pop(); ev != nil {
		t.Fatalf("pop of empty wheel returned %+v", ev)
	}
	if _, ok := wq.peekTime(); ok {
		t.Fatal("peek of empty wheel reported an event")
	}
}

// TestProcIntrospection covers the small Proc accessors against a live
// kernel: Name, Kernel, Suspended around a Suspend/Resume pair.
func TestProcIntrospection(t *testing.T) {
	k := New(1)
	var inner *Proc
	var sawSuspended bool
	k.Spawn("watched", func(p *Proc) {
		if p.Name() != "watched" || p.Kernel() != k {
			t.Errorf("accessors wrong: name %q", p.Name())
		}
		inner = p
		p.Suspend()
	})
	k.At(Time(time.Millisecond), func() {
		sawSuspended = inner.Suspended()
		inner.Resume()
	})
	if err := k.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !sawSuspended {
		t.Error("Suspended() false while the proc was parked in Suspend")
	}
	if inner.Suspended() {
		t.Error("Suspended() true after Resume")
	}
}
