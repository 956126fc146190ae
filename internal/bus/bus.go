// Package bus models the broadcast medium of a SODA network: a single
// shared 1 Mbit/s bus in the style of CompuNet's Megalink (§5.1).
//
// The model serializes transmissions (the medium carries one frame at a
// time), charges bandwidth-accurate transmission time for every frame, adds
// a fixed propagation delay, and can drop frames independently per receiver
// to emulate CRC-detected corruption (§5.2.2: "A message with an incorrect
// CRC is simply discarded"). All randomness comes from the simulation
// kernel's seeded source, so runs are reproducible.
package bus

import (
	"fmt"
	"reflect"
	"time"

	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
	"soda/internal/wire"
)

// Config sets the physical characteristics of the medium.
type Config struct {
	// BandwidthBPS is the line rate in bits per second. The thesis's
	// Megalink runs at 1 megabit (§5.1).
	BandwidthBPS int64
	// PropDelay is the propagation plus interface latency per delivery.
	PropDelay time.Duration
	// LossProb is the probability that any single receiver discards a
	// frame (modelling CRC-detected corruption). Sampled independently
	// per receiver.
	LossProb float64
	// ArbJitter bounds the random extra wait added when a sender finds
	// the medium busy, standing in for backoff arbitration (§6.10).
	ArbJitter time.Duration
}

// DefaultConfig matches the thesis's development network.
func DefaultConfig() Config {
	return Config{
		BandwidthBPS: 1_000_000,
		PropDelay:    20 * time.Microsecond,
	}
}

// Stats counts traffic on the medium. FramesSent counts transmissions;
// FramesDelivered counts per-receiver deliveries (a broadcast to N attached
// interfaces can deliver N times). FramesLost counts per-receiver drops by
// the loss model or a fault model; FramesDroppedDown counts frames that
// arrived at a downed interface and were discarded there. FramesCorrupted
// and FramesDuplicated count fault-model damage and duplication.
//
// The node-sourced counters, from Retransmissions through WindowDecreases,
// are never written by the bus, so on a bare bus they read 0. Each is a
// fact only a node knows: its Delta-t endpoint counts the transport ones
// in its deltat.Ledger and its kernel counts PatternTableFull.
// soda.Network.Stats sums the nodes' counts into these fields, so protocol
// recovery work shows up next to the wire counters it causes, on every
// backend.
//
// Measurement-window contract: every field of Stats — wire counters,
// fault-model counters, and node-sourced counters alike — accumulates
// from the last ResetStats (or from bus creation). ResetStats zeroes the
// whole struct (soda.Network.ResetStats zeroes the nodes' counts with it),
// so a window opened with ResetStats and read with Stats attributes all
// counters to the same interval. Per-node CPU cost buckets are NOT part of
// Stats; scope those separately with Node.ResetTotals.
type Stats struct {
	FramesSent        uint64
	FramesDelivered   uint64
	FramesLost        uint64
	FramesDroppedDown uint64
	FramesCorrupted   uint64
	FramesDuplicated  uint64
	// BridgeCorruptDrops counts corrupted frames discarded at a bridge
	// interface. A store-and-forward gateway validates the checksum on
	// receive like any receiver; unlike a node's transport it never hands
	// damaged bytes upward, so the frame dies here instead of being
	// relayed onto another segment as a clean-looking forgery.
	BridgeCorruptDrops uint64
	// Retransmissions counts DATA frames re-sent by a transport
	// retransmission timer (the first transmission is not counted). It
	// and every field down to WindowDecreases are node-sourced: the bus
	// never writes them, so on a bare bus they read 0 (see above).
	Retransmissions uint64
	// PiggybackedAcks counts acknowledgements that rode outgoing DATA
	// frames instead of standalone ACK frames (invisible in ByKind).
	PiggybackedAcks uint64
	// PeerDeadTimeouts counts sends abandoned after MPL+Δt of silence
	// (the transport reported the destination dead).
	PeerDeadTimeouts uint64
	// PatternTableFull counts AdvertiseUnique calls rejected because a
	// node's 256-slot pattern table was saturated (§5.4's flat directory is
	// a hard scale wall; the counter makes saturation observable at scale).
	PatternTableFull uint64
	// WindowFills counts sends that had to queue because the sliding
	// window (Config.Window messages) toward the destination was full —
	// the windowed transport's analogue of stop-and-wait head-of-line
	// blocking. Always zero at window=1.
	WindowFills uint64
	// CumulativeAcks counts cumulative fragment acknowledgements sent,
	// standalone FRAGACK frames and piggybacks on reverse FRAGs alike.
	CumulativeAcks uint64
	// FragmentRetransmits counts FRAG frames re-sent by the windowed
	// transport's recovery: hole re-sends and §5.2.3 completion probes
	// (first transmissions not counted).
	FragmentRetransmits uint64
	// SelectiveRetransmits counts the subset of FragmentRetransmits that
	// were hole-targeted re-sends (SACKed successors withheld):
	// timer-driven hole rounds and fast retransmits.
	SelectiveRetransmits uint64
	// SackBlocksSent counts contiguous SACK blocks carried on outgoing
	// FRAGACK frames (one bitmap may report several blocks).
	SackBlocksSent uint64
	// WindowIncreases and WindowDecreases count AIMD congestion-window
	// moves: additive +1 growth after a clean window of completions, and
	// multiplicative halving on a recovery-timer fire. Always zero at
	// window<=1.
	WindowIncreases uint64
	WindowDecreases uint64
	BytesSent       uint64
	ByKind          map[frame.TransportKind]uint64
}

// Add accumulates o into s: counters sum and ByKind merges. Reflection
// walks the uint64 fields so the sum stays exhaustive as counters are
// added — a hand-written list would silently omit new fields (the
// aggregation analogue of the ResetStats whole-struct rule). Used to
// total traffic across the segments of an internetwork.
func (s *Stats) Add(o Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + ov.Field(i).Uint())
		}
	}
	if len(o.ByKind) > 0 {
		if s.ByKind == nil {
			s.ByKind = make(map[frame.TransportKind]uint64, len(o.ByKind))
		}
		for _, k := range sortediter.Keys(o.ByKind) {
			s.ByKind[k] += o.ByKind[k]
		}
	}
}

// FaultAction is a fault model's disposition of one per-receiver delivery.
// The zero value delivers the frame untouched.
type FaultAction struct {
	// Drop discards the frame for this receiver (counted as FramesLost).
	Drop bool
	// Corrupt damages the frame in transit. The damage is always
	// CRC-detectable — real hardware discards such frames after the
	// checksum (§5.2.2), so the model guarantees the transport decoder
	// rejects the bytes rather than ever delivering a forged frame.
	Corrupt bool
	// Duplicate delivers the frame a second time, one propagation delay
	// after the first copy.
	Duplicate bool
	// Delay adds latency to the delivery. Link FIFO order is preserved:
	// a delayed frame also delays everything behind it on the same
	// (src, dst) link, as a store-and-forward repeater would.
	Delay time.Duration
}

// FaultModel adjudicates every per-receiver delivery. Judge runs once per
// receiver per transmission (twice the propagation is shared, the fate is
// not) and must draw any randomness from the simulation kernel's source.
type FaultModel interface {
	Judge(now sim.Time, src, dst frame.MID, raw []byte) FaultAction
}

// DeliveryEvent describes one successful per-receiver delivery, emitted
// before the receiver runs. Raw is the delivered bytes — shared with the
// sender and every other clean receiver of the same transmission, so
// observers must not mutate it — and Corrupted reports whether the fault
// model damaged the frame in transit.
//
// Construct it only under a nil-consumer guard (sodavet obszerocost).
//
//lint:event
type DeliveryEvent struct {
	At        sim.Time
	Src       frame.MID
	Dst       frame.MID
	Raw       []byte
	Corrupted bool
}

// TapEvent describes one transmission, emitted when the sender hands the
// frame to the medium.
//
// Construct it only under a nil-consumer guard (sodavet obszerocost).
//
//lint:event
type TapEvent struct {
	At   sim.Time
	Src  frame.MID
	Dst  frame.MID
	Kind frame.TransportKind
	Size int
	// Seg is the bus segment that carried the frame (Hooks.Seg).
	Seg int
}

// Hooks are a medium's one emit hook per wire event kind. The network's
// event stream installs them, leaving nil every kind nobody subscribed
// to, so the medium builds no event of that kind.
type Hooks struct {
	Transmit func(TapEvent)
	Delivery func(DeliveryEvent)
	// Seg numbers the bus within its internetwork (0 on a single bus);
	// the bus stamps it on its transmit events.
	Seg int
}

// Bus is the shared medium. It is driven entirely from simulation context.
type Bus struct {
	k   *sim.Kernel
	cfg Config
	// ifaces are the attached interfaces in MID order: unicast finds its
	// target by binary search, and the broadcast fan-out is deterministic
	// without sorting anything per frame.
	ifaces    []*Iface
	busyUntil sim.Time
	stats     Stats
	hooks     Hooks
	fault     FaultModel
	// bridges are the interfaces attached via AttachBridge, kept in MID
	// order so the delivery fan-out of unrouted unicasts is deterministic.
	bridges []*Iface
	// linkFloor is the earliest admissible delivery instant per (src, dst)
	// link, maintained only while a fault model is installed: fault delays
	// must not reorder a link (the alternating-bit transport assumes FIFO
	// links, as the physical medium provides).
	linkFloor map[linkKey]sim.Time
	// free recycles delivery records (see delivery).
	free []*delivery
}

type linkKey struct{ src, dst frame.MID }

// New creates a bus on the given simulation kernel.
func New(k *sim.Kernel, cfg Config) *Bus {
	if cfg.BandwidthBPS <= 0 {
		cfg.BandwidthBPS = DefaultConfig().BandwidthBPS
	}
	return &Bus{
		k:     k,
		cfg:   cfg,
		stats: Stats{ByKind: make(map[frame.TransportKind]uint64)},
	}
}

// SetHooks installs the bus's event hooks (the zero Hooks disables them).
func (b *Bus) SetHooks(h Hooks) { b.hooks = h }

// SetFaultModel installs the fault model consulted for every delivery (nil
// disables). The model is layered over Config.LossProb: uniform loss is
// sampled first, then the model judges the survivors.
func (b *Bus) SetFaultModel(m FaultModel) {
	b.fault = m
	if m != nil && b.linkFloor == nil {
		b.linkFloor = make(map[linkKey]sim.Time)
	}
}

// Stats returns a copy of the counters.
func (b *Bus) Stats() Stats {
	out := b.stats
	out.ByKind = make(map[frame.TransportKind]uint64, len(b.stats.ByKind))
	for k, v := range b.stats.ByKind {
		out.ByKind[k] = v
	}
	return out
}

// ResetStats zeroes every counter — wire, fault-model, and
// transport-sourced alike — by replacing the whole Stats value, so newly
// added fields can never be missed. Used to scope measurement windows; see
// the contract on Stats.
func (b *Bus) ResetStats() {
	b.stats = Stats{ByKind: make(map[frame.TransportKind]uint64)}
}

// Iface is a node's attachment to the bus.
type Iface struct {
	bus    *Bus
	mid    frame.MID
	recv   func(raw []byte)
	up     bool
	bridge bool
}

// Attach connects a machine to the bus. recv is invoked in simulation
// context with the raw frame bytes for every frame addressed to mid (or
// broadcast) that survives the loss model.
func (b *Bus) Attach(mid frame.MID, recv func(raw []byte)) (*Iface, error) {
	if mid == frame.BroadcastMID {
		return nil, fmt.Errorf("bus: cannot attach the broadcast MID")
	}
	if b.lookup(mid) != nil {
		return nil, fmt.Errorf("bus: MID %d already attached", mid)
	}
	i := &Iface{bus: b, mid: mid, recv: recv, up: true}
	b.ifaces = insertByMID(b.ifaces, i)
	return i, nil
}

// lookup returns the interface attached as mid, or nil.
func (b *Bus) lookup(mid frame.MID) *Iface {
	lo, hi := 0, len(b.ifaces)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.ifaces[m].mid < mid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(b.ifaces) && b.ifaces[lo].mid == mid {
		return b.ifaces[lo]
	}
	return nil
}

// insertByMID inserts i into list, which is in MID order, keeping the order.
func insertByMID(list []*Iface, i *Iface) []*Iface {
	pos := len(list)
	for j, other := range list {
		if other.mid > i.mid {
			pos = j
			break
		}
	}
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = i
	return list
}

// removeIface removes i from list, if present, keeping the order.
func removeIface(list []*Iface, i *Iface) []*Iface {
	for j, other := range list {
		if other == i {
			return append(list[:j], list[j+1:]...)
		}
	}
	return list
}

// busWire adapts Attach's concrete *Iface result to the transport's wire
// seam (Go interfaces have no covariant returns, so the one-line wrapper
// is unavoidable).
type busWire struct{ b *Bus }

func (w busWire) Attach(mid frame.MID, recv func(raw []byte)) (wire.Iface, error) {
	i, err := w.b.Attach(mid, recv)
	if err != nil {
		return nil, err // not a typed-nil *Iface inside a non-nil interface
	}
	return i, nil
}

// Wire exposes the bus as a transport medium (wire.Network). Delta-t
// endpoints attach through this seam, so the same transport code runs over
// the simulated bus and the real-socket backend.
func (b *Bus) Wire() wire.Network { return busWire{b} }

// AttachBridge connects a store-and-forward gateway to the bus. A bridge
// interface hears every broadcast (like any attachment) and, in addition,
// every unicast frame whose destination MID has no local attachment — the
// frames that need routing to another segment. Plain attachments never see
// such frames (the single-segment wire is unchanged when no bridge exists).
func (b *Bus) AttachBridge(mid frame.MID, recv func(raw []byte)) (*Iface, error) {
	i, err := b.Attach(mid, recv)
	if err != nil {
		return nil, err
	}
	i.bridge = true
	b.bridges = insertByMID(b.bridges, i)
	return i, nil
}

// Detach disconnects the interface from the bus entirely: it stops hearing
// frames and its MID becomes free for reuse. Frames already in flight toward
// it are discarded at delivery time (the interface is marked down).
func (i *Iface) Detach() {
	i.bus.ifaces = removeIface(i.bus.ifaces, i)
	i.bus.bridges = removeIface(i.bus.bridges, i)
	i.up = false
}

// Down disconnects the interface (a crashed node hears nothing). Frames in
// flight toward it are discarded at delivery time.
func (i *Iface) Down() { i.up = false }

// Up reconnects the interface after Down.
func (i *Iface) Up() { i.up = true }

// Send transmits raw to dst (or to every other attached interface when dst
// is BroadcastMID). The frame's first byte is the transport kind; it is
// used for accounting only. Send never blocks the caller: transmission and
// delivery are scheduled in virtual time. The bus takes ownership of raw —
// clean deliveries share the very same bytes with every receiver — so the
// caller must not mutate the buffer after Send.
//
// The segemit marker gates this call in segment-handler code: a gateway
// may only reach it through a //lint:segqueue closure, never synchronously
// from its bridge receive path (see the sodavet segshare analyzer).
//
//lint:segemit
//lint:hotpath
func (i *Iface) Send(dst frame.MID, raw []byte) {
	b := i.bus
	if !i.up {
		return // a downed interface cannot drive the line
	}
	start := b.k.Now()
	if b.busyUntil > start {
		start = b.busyUntil
		if b.cfg.ArbJitter > 0 {
			//lint:allow noalloc (cold: arbitration jitter is off in the default config)
			start += time.Duration(b.k.Rand().Int63n(int64(b.cfg.ArbJitter) + 1))
		}
	}
	txTime := time.Duration(int64(len(raw)) * 8 * int64(time.Second) / b.cfg.BandwidthBPS)
	end := start + txTime
	b.busyUntil = end

	b.stats.FramesSent++
	b.stats.BytesSent += uint64(len(raw))
	var kind frame.TransportKind
	if len(raw) > 0 {
		kind = frame.TransportKind(raw[0])
		b.stats.ByKind[kind]++
	}
	if b.hooks.Transmit != nil {
		//lint:allow noalloc (observer: nil-guarded transmit emit, absent on measured runs)
		b.hooks.Transmit(TapEvent{At: b.k.Now(), Src: i.mid, Dst: dst, Kind: kind, Size: len(raw), Seg: b.hooks.Seg})
	}

	deliverAt := end + b.cfg.PropDelay
	if dst == frame.BroadcastMID {
		// Iterate in MID order: map iteration order would make event
		// sequencing (and thus the whole simulation) nondeterministic.
		for _, target := range b.ifaces {
			if target.mid != i.mid {
				b.scheduleDelivery(i.mid, target, raw, deliverAt)
			}
		}
		return
	}
	if target := b.lookup(dst); target != nil {
		b.scheduleDelivery(i.mid, target, raw, deliverAt)
		return
	}
	// The destination is not attached here. On a single-segment network the
	// frame just dies on the wire; with bridges attached, each gateway hears
	// it and may route it toward the destination's segment.
	for _, br := range b.bridges {
		if br != i {
			b.scheduleDelivery(i.mid, br, raw, deliverAt)
		}
	}
}

func (b *Bus) scheduleDelivery(src frame.MID, target *Iface, raw []byte, at sim.Time) {
	//lint:allow noalloc (cold: loss injection is off on the measured hot path)
	if b.cfg.LossProb > 0 && b.k.Rand().Float64() < b.cfg.LossProb {
		b.stats.FramesLost++
		return
	}
	var act FaultAction
	if b.fault != nil {
		//lint:allow noalloc (cold: fault adjudication runs only under an installed fault model)
		act = b.fault.Judge(b.k.Now(), src, target.mid, raw)
	}
	if act.Drop {
		b.stats.FramesLost++
		return
	}
	// Receivers, subscribers and the decoder all treat delivered bytes as
	// read-only, so every clean delivery can share the sender's buffer;
	// only corruption needs a private copy to damage (other receivers of
	// the same broadcast must still see the frame intact).
	buf := raw
	corrupted := false
	if act.Corrupt && len(raw) > 0 {
		//lint:allow noalloc (cold: fault-model corruption needs a private copy)
		buf = make([]byte, len(raw))
		copy(buf, raw)
		//lint:allow noalloc (cold: fault-model corruption only)
		b.corrupt(buf)
		b.stats.FramesCorrupted++
		corrupted = true
	}
	if act.Delay > 0 {
		at += act.Delay
	}
	if b.fault != nil {
		// Clamp to the link's FIFO floor so a delayed frame never
		// overtakes (nor is overtaken on) its link.
		key := linkKey{src, target.mid}
		if floor := b.linkFloor[key]; at < floor {
			at = floor
		}
		//lint:allow noalloc (cold: link FIFO floors exist only under a fault model)
		b.linkFloor[key] = at
		if act.Duplicate {
			b.stats.FramesDuplicated++
			dupAt := at + b.cfg.PropDelay
			//lint:allow noalloc (cold: duplication exists only under a fault model)
			b.linkFloor[key] = dupAt
			b.deliver(src, target, buf, at, corrupted)
			b.deliver(src, target, buf, dupAt, corrupted)
			return
		}
	}
	b.deliver(src, target, buf, at, corrupted)
}

// deliver schedules the actual handoff to the receiving interface.
func (b *Bus) deliver(src frame.MID, target *Iface, buf []byte, at sim.Time, corrupted bool) {
	d := b.newDelivery()
	d.src, d.target, d.buf, d.corrupted = src, target, buf, corrupted
	b.k.At(at, d.fire)
}

// delivery is a frame in flight toward one receiver. Records live on their
// bus's freelist: fire is bound once when a record is first allocated, and
// a record goes back to the freelist as it fires, so the steady state
// delivers without allocating.
type delivery struct {
	b         *Bus
	fire      func()
	src       frame.MID
	target    *Iface
	buf       []byte
	corrupted bool
}

// newDelivery takes a delivery record from the freelist, or allocates one.
func (b *Bus) newDelivery() *delivery {
	if n := len(b.free); n > 0 {
		d := b.free[n-1]
		b.free = b.free[:n-1]
		return d
	}
	//lint:allow noalloc (amortized: one record per new peak of frames in flight)
	d := &delivery{b: b}
	//lint:allow noalloc (amortized: bound once per record; the record is reused)
	d.fire = d.run
	return d
}

// run hands the frame to its receiver. The record is back on the freelist
// before the receiver runs.
//
//lint:hotpath
func (d *delivery) run() {
	b, src, target, buf, corrupted := d.b, d.src, d.target, d.buf, d.corrupted
	d.target, d.buf = nil, nil
	//lint:allow noalloc (amortized: the freelist grows to the peak number of frames in flight)
	b.free = append(b.free, d)
	if !target.up {
		b.stats.FramesDroppedDown++
		return
	}
	if corrupted && target.bridge {
		// A gateway checksums on receive and never forwards damage;
		// dropping before the delivery emit keeps the checker's view
		// honest (the relayed copy would otherwise arrive marked clean).
		b.stats.BridgeCorruptDrops++
		return
	}
	b.stats.FramesDelivered++
	if b.hooks.Delivery != nil {
		//lint:allow noalloc (observer: nil-guarded delivery emit, absent on measured runs)
		b.hooks.Delivery(DeliveryEvent{At: b.k.Now(), Src: src, Dst: target.mid, Raw: buf, Corrupted: corrupted})
	}
	//lint:allow noalloc (indirect: recv is the transport's receive, itself a //lint:hotpath root)
	target.recv(buf)
}

// corrupt damages buf in place with one to three random byte flips, then
// guarantees detectability by flipping a byte of the transport header's
// length field (bytes 9..12): the decoder's length check — the CRC's
// stand-in — always rejects the frame, so damage is never delivered as a
// forged message, exactly as checksummed hardware behaves (§5.2.2).
// Frames shorter than the transport header are rejected as short anyway.
func (b *Bus) corrupt(buf []byte) {
	rng := b.k.Rand()
	for flips := 1 + rng.Intn(3); flips > 0; flips-- {
		idx := rng.Intn(len(buf))
		if len(buf) >= 16 && idx >= 9 && idx < 13 {
			idx -= 9 // keep random flips off the length field
		}
		buf[idx] ^= byte(1 + rng.Intn(255))
	}
	if len(buf) >= 16 {
		buf[9+rng.Intn(4)] ^= byte(1 + rng.Intn(255))
	}
}
