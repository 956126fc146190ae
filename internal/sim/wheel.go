package sim

import (
	"container/heap"
	"math/bits"
)

// eventQueue is the scheduler's pending-event store. The wheel below (a
// hierarchical timer wheel) is the one production implementation; the
// interface stays so that wheel_test.go can substitute its binary-heap
// oracle through newWithQueue. Any implementation must yield the exact same
// total order — (t, seq) ascending — or traces stop being reproducible.
type eventQueue interface {
	push(*event)
	pop() *event
	peek() *event // head event without removing it; nil when empty
	peekTime() (Time, bool)
	len() int
}

const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits // 256 slots per level
	wheelLevels   = 4
	// wheelBaseShift sets the level-0 slot width to 2^16 ns ≈ 65.5µs: finer
	// than the bus frame-transmission quantum, so a slot rarely holds more
	// than a handful of events, while 4 levels of 256 slots still span
	// 2^48 ns ≈ 78 hours of virtual time before the overflow list is needed.
	wheelBaseShift = 16

	wheelOccWords = wheelSlots / 64

	// wheelNearLevels is how many levels live inline in the wheel. Levels
	// 0-1 span 4.3 s of virtual time, which short runs rarely leave; the
	// slot tables of the levels above (6 KB each) are allocated on first
	// use.
	wheelNearLevels = 2
)

// wheelShift is the bit position where level l's slot index starts.
func wheelShift(l int) uint { return uint(wheelBaseShift + l*wheelSlotBits) }

// wheel is a hierarchical timer wheel (calendar queue). Events land in the
// lowest level whose slot resolution separates them from the current time;
// as the clock reaches a higher-level slot its events cascade down. The slot
// currently being drained is kept as a small (t, seq) min-heap ("bucket"),
// which preserves the binary heap's exact total order — including FIFO
// tie-breaks at equal timestamps — while making the common insert (a short
// delta landing in level 0) an O(1) slice append instead of an O(log n)
// sift. Each event cascades at most wheelLevels-1 times, so cost stays O(1)
// amortized regardless of how many events are pending.
type wheel struct {
	cur       Time // start of the level-0 slot currently draining
	bucketEnd Time // exclusive end of that slot; pushes below it join the bucket
	bucket    eventHeap
	near      [wheelNearLevels]wheelLevel
	far       [wheelLevels - wheelNearLevels]*wheelLevel // nil until first filed into
	occ       [wheelLevels][wheelOccWords]uint64         // per-level slot occupancy bitmaps
	overflow  []*event                                   // events beyond the top level's span
	// spare holds drained slot arrays, cleared, for place to reuse when it
	// fills an empty slot. Retained slot storage is then bounded by the peak
	// number of simultaneously occupied slots rather than by every slot the
	// clock has ever touched, and a steady-state insert never allocates.
	spare [][]*event
	size  int
}

// wheelLevel is one level's slot table.
type wheelLevel [wheelSlots][]*event

func newWheel() *wheel { return &wheel{} }

// level returns level l's slot table, allocating a far level's on first
// use.
func (w *wheel) level(l int) *wheelLevel {
	if l < wheelNearLevels {
		return &w.near[l]
	}
	f := w.far[l-wheelNearLevels]
	if f == nil {
		//lint:allow noalloc (amortized: at most one table per far level per wheel, on the first event filed that far out)
		f = new(wheelLevel)
		w.far[l-wheelNearLevels] = f
	}
	return f
}

func (w *wheel) len() int { return w.size }

func (w *wheel) push(ev *event) {
	w.size++
	if ev.t < w.bucketEnd {
		//lint:allow noalloc (amortized: bucket storage grows to the slot's peak occupancy, then stabilizes)
		heap.Push(&w.bucket, ev)
		return
	}
	w.place(ev)
}

// place files ev into the lowest level that shares its parent slot with the
// current time. The kernel clamps event times to now, so ev.t >= w.cur and
// the chosen slot is never one the wheel has already drained.
func (w *wheel) place(ev *event) {
	for l := 0; l < wheelLevels; l++ {
		above := wheelShift(l + 1)
		if ev.t>>above == w.cur>>above {
			s := int(ev.t>>wheelShift(l)) & (wheelSlots - 1)
			lv := w.level(l)
			slot := lv[s]
			if cap(slot) == 0 {
				if n := len(w.spare); n > 0 {
					slot = w.spare[n-1]
					w.spare[n-1] = nil
					w.spare = w.spare[:n-1]
				}
			}
			//lint:allow noalloc (amortized: a slot array grows to its peak occupancy, then circulates through the spare list)
			lv[s] = append(slot, ev)
			w.occ[l][s>>6] |= 1 << (uint(s) & 63)
			return
		}
	}
	//lint:allow noalloc (cold: overflow holds only events beyond 78 virtual hours out)
	w.overflow = append(w.overflow, ev)
}

// takeSlot removes and returns slot s of level l, clearing its occupancy bit.
// The slot is occupied, so its level's table exists.
func (w *wheel) takeSlot(l, s int) []*event {
	lv := w.level(l)
	evs := lv[s]
	lv[s] = nil
	w.occ[l][s>>6] &^= 1 << (uint(s) & 63)
	return evs
}

// giveBack clears a drained slot array, so the events it referenced are not
// retained, and files it on the spare list for place to reuse.
func (w *wheel) giveBack(evs []*event) {
	clear(evs)
	//lint:allow noalloc (amortized: the spare list grows to the peak number of occupied slots, then stabilizes)
	w.spare = append(w.spare, evs[:0])
}

// firstSlot finds the lowest-index occupied slot of level l. Occupied slots
// are always in the future relative to cur (drained slots are cleared, and
// place never files into the past), so within a level the lowest index is
// the earliest slot.
func (w *wheel) firstSlot(l int) (int, bool) {
	for wi, word := range w.occ[l] {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// refill advances the wheel to the next occupied level-0 slot and loads it
// into the bucket, cascading higher-level slots down as the clock crosses
// them. Reports false when no events are pending anywhere.
func (w *wheel) refill() bool {
	if w.size == 0 {
		return false
	}
	for {
		if s, ok := w.firstSlot(0); ok {
			evs := w.takeSlot(0, s)
			base := w.cur &^ (Time(1)<<wheelShift(1) - 1)
			start := base + Time(s)<<wheelShift(0)
			w.cur = start
			w.bucketEnd = start + Time(1)<<wheelShift(0)
			//lint:allow noalloc (amortized: the bucket grows to the peak number of events in one level-0 slot)
			w.bucket = append(w.bucket[:0], evs...)
			w.giveBack(evs)
			//lint:allow noalloc (external: container/heap.Init only swaps elements of the bucket)
			heap.Init(&w.bucket)
			return true
		}
		if w.cascade() {
			continue
		}
		// Every level is empty; the remaining events sit past the top
		// level's span. Jump the clock to the earliest of them and re-file:
		// at least that one now lands in a level, so progress is guaranteed.
		min := w.overflow[0].t
		for _, ev := range w.overflow[1:] {
			if ev.t < min {
				min = ev.t
			}
		}
		w.cur = min
		evs := w.overflow
		w.overflow = nil
		for _, ev := range evs {
			w.place(ev)
		}
	}
}

// cascade moves the earliest occupied slot of the lowest nonempty level
// 1..N down one level (its events re-place relative to the slot's start
// time). Reports false when levels 1..N are all empty.
func (w *wheel) cascade() bool {
	for l := 1; l < wheelLevels; l++ {
		s, ok := w.firstSlot(l)
		if !ok {
			continue
		}
		evs := w.takeSlot(l, s)
		base := w.cur &^ (Time(1)<<wheelShift(l+1) - 1)
		w.cur = base + Time(s)<<wheelShift(l)
		for _, ev := range evs {
			w.place(ev)
		}
		w.giveBack(evs) // only now: place may not take the array it is draining
		return true
	}
	return false
}

func (w *wheel) pop() *event {
	if w.bucket.Len() == 0 && !w.refill() {
		return nil
	}
	w.size--
	//lint:allow noalloc (external: container/heap.Pop only swaps elements, and a pointer boxed in any allocates nothing)
	return heap.Pop(&w.bucket).(*event)
}

// peekTime reports the earliest pending event time. The bucket always holds
// the global minimum: every event still filed in a level or the overflow
// list is at or past bucketEnd.
func (w *wheel) peekTime() (Time, bool) {
	if w.bucket.Len() == 0 && !w.refill() {
		return 0, false
	}
	return w.bucket[0].t, true
}

// peek returns the earliest pending event without removing it.
func (w *wheel) peek() *event {
	if w.bucket.Len() == 0 && !w.refill() {
		return nil
	}
	return w.bucket[0]
}
