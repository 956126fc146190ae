// Package deltat implements SODA's reliable transport: an alternating-bit
// stop-and-wait protocol whose connection state is managed by the Delta-t
// rules (§5.2.2) — no explicit connection establishment, duplicate
// suppression via per-peer records, and record reclamation driven purely by
// timing bounds.
//
// Terminology follows the thesis: MPL is the maximum packet lifetime, R the
// maximum total time spent retransmitting a message, and A the maximum
// delay before acknowledging a packet. Δt = MPL + R + A. A connection
// record is discarded (and any sequence number accepted again) after
// silence of MPL + Δt; a crashed node stays off the network for 2·MPL + Δt
// before rejoining.
//
// Config.Window > 1 swaps the alternating-bit wire for a windowed,
// fragmenting one (window.go). Both framings keep their per-peer state in
// one Delta-t record (peer), so the timer discipline is the same for every
// connection.
//
// The endpoint supports the piggybacking the thesis's chapter 5 measures:
//
//   - an acknowledgement may carry an upper-layer reply in its payload
//     (ACCEPT+ACK completing a PUT);
//   - a DATA frame may carry a piggybacked ACK for the reverse direction
//     (ACCEPT+DATA acknowledging the REQUEST; a new REQUEST acknowledging
//     the previous reply's data);
//   - acknowledgement of a delivered DATA frame can be withheld ("held")
//     for a bounded window so the upper layer may resolve it with a
//     piggyback, a BUSY, or an error.
package deltat

import (
	"fmt"
	"reflect"
	//lint:allow nogoroutine (the ledger is counters only: Network.Stats reads them from other goroutines, and an atomic add neither blocks nor orders kernel work)
	"sync/atomic"
	"time"

	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
	"soda/internal/wire"
)

// Verdict is the upper layer's disposition of a delivered DATA frame.
type Verdict uint8

const (
	// VerdictAck acknowledges the frame, optionally with a reply payload.
	VerdictAck Verdict = iota + 1
	// VerdictBusy refuses the frame without consuming it; the sender
	// retries later at a reduced rate (§5.2.3).
	VerdictBusy
	// VerdictError consumes the frame and reports an error NACK.
	VerdictError
	// VerdictHold withholds the acknowledgement: the upper layer will
	// resolve it via ResolveHold or SendResolvingHold, or the endpoint
	// auto-resolves after HoldTimeout with ExpiryVerdict.
	VerdictHold
	// VerdictAckDeferred consumes the frame but defers the plain
	// acknowledgement for up to one ack-delay (A), hoping to piggyback
	// it on the next DATA frame transmitted toward the sender — the
	// "new REQUEST piggybacked on the ACK for the data" optimization of
	// §5.2.3. Kernel-level: it owes no upper-layer reply.
	VerdictAckDeferred
)

// Decision is returned by the OnData hook (and passed to ResolveHold).
type Decision struct {
	Verdict Verdict
	// Err is the error NACK code for VerdictError.
	Err frame.ErrCode
	// Reply is piggybacked on the ACK for VerdictAck.
	Reply []byte
	// HoldTimeout bounds a VerdictHold; zero means one ack-delay (A).
	// Negative means no automatic expiry: the upper layer owns the hold
	// and must eventually resolve it.
	HoldTimeout time.Duration
	// ExpiryVerdict is applied if a hold times out: VerdictAck sends a
	// plain ACK (the "made it to handler, not accepted yet" case);
	// VerdictBusy sends a BUSY NACK (the pipelined input-buffer case).
	ExpiryVerdict Verdict
}

// ResultKind classifies the outcome of a reliable Send.
type ResultKind uint8

const (
	// ResultAcked: the peer consumed the message; Reply holds any
	// payload piggybacked on the acknowledgement.
	ResultAcked ResultKind = iota + 1
	// ResultError: the peer consumed the message and reported Err.
	ResultError
	// ResultPeerDead: no response within MPL+Δt of retransmission; the
	// destination is reported dead (§5.2.2).
	ResultPeerDead
)

// Result reports the outcome of a reliable Send.
type Result struct {
	Kind  ResultKind
	Err   frame.ErrCode
	Reply []byte
}

// Costs models the per-frame CPU spent by the kernel processor, split into
// the buckets of the thesis's "Breakdown of Communications Overhead" table.
// Each component both delays processing in virtual time and accumulates
// into Totals.
type Costs struct {
	// ProtocolPerFrame is protocol processing charged on every frame
	// sent and received.
	ProtocolPerFrame time.Duration
	// ConnTimerPerFrame is connection-record upkeep charged on every
	// frame sent and received.
	ConnTimerPerFrame time.Duration
	// RetransTimer is charged when arming (DATA send) and clearing
	// (ACK/NACK receipt) the retransmission timer.
	RetransTimer time.Duration
	// CopyPerByte is the buffer copy cost, charged per payload byte on
	// DATA send and DATA delivery.
	CopyPerByte time.Duration
}

// CostTotals accumulates the cost buckets for the breakdown table.
type CostTotals struct {
	Protocol     time.Duration
	ConnTimer    time.Duration
	RetransTimer time.Duration
	Copy         time.Duration
	FramesSent   uint64
	FramesRecv   uint64
}

// Ledger is an endpoint's always-on transport counters: the facts only
// the endpoint knows, counted where it reports them (emit), whether or not
// an observer listens. Each field is named after the bus.Stats field that
// soda.Network.Stats sums it into. The counters are atomic because Stats
// and ResetStats may run on another goroutine than the endpoint's (a
// socket network's driver, a parallel network's shards).
type Ledger struct {
	Retransmissions      atomic.Uint64
	PiggybackedAcks      atomic.Uint64
	PeerDeadTimeouts     atomic.Uint64
	WindowFills          atomic.Uint64
	CumulativeAcks       atomic.Uint64
	FragmentRetransmits  atomic.Uint64
	SelectiveRetransmits atomic.Uint64
	SackBlocksSent       atomic.Uint64
	WindowIncreases      atomic.Uint64
	WindowDecreases      atomic.Uint64
}

// count is the one map from event kind to counter. n is the event's
// Attempt: an EvSackTx carries its SACK block count there.
func (l *Ledger) count(kind EventKind, n int) {
	switch kind {
	case EvRetransmit:
		l.Retransmissions.Add(1)
	case EvPiggybackAck:
		l.PiggybackedAcks.Add(1)
	case EvPeerDead:
		l.PeerDeadTimeouts.Add(1)
	case EvWindowFill:
		l.WindowFills.Add(1)
	case EvCumAck:
		l.CumulativeAcks.Add(1)
	case EvFragRetransmit:
		l.FragmentRetransmits.Add(1)
	case EvSelectiveRetransmit:
		// A hole re-send is a fragment retransmission too.
		l.FragmentRetransmits.Add(1)
		l.SelectiveRetransmits.Add(1)
	case EvSackTx:
		l.SackBlocksSent.Add(uint64(n))
	case EvWindowIncrease:
		l.WindowIncreases.Add(1)
	case EvWindowDecrease:
		l.WindowDecreases.Add(1)
	}
}

// Reset zeroes every counter. It walks the fields by reflection, so a
// counter added later cannot dodge a measurement window.
func (l *Ledger) Reset() {
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Addr().Interface().(*atomic.Uint64).Store(0)
	}
}

// EventKind discriminates transport observer events (see Event).
type EventKind uint8

const (
	// EvConnOpen: a connection record for the peer was created.
	EvConnOpen EventKind = iota + 1
	// EvConnExpire: the record's receive side lapsed after ConnLifetime
	// of silence (any sequence number is accepted again, §5.2.2).
	EvConnExpire
	// EvConnClose: the record was discarded (the peer was reported dead).
	EvConnClose
	// EvRetransmit: a retransmission timer re-sent the current DATA
	// frame; Seq is its sequence number, Attempt the transmission count
	// including this one.
	EvRetransmit
	// EvAckTx: a standalone acknowledgement frame was scheduled toward
	// the peer.
	EvAckTx
	// EvAckRx: an acknowledgement for the outstanding DATA frame was
	// consumed (the message completed).
	EvAckRx
	// EvPiggybackAck: an acknowledgement rode an outgoing DATA frame
	// instead of a standalone ACK (§5.2.3).
	EvPiggybackAck
	// EvPeerDead: the destination stayed silent past MPL+Δt; the current
	// message and everything queued behind it failed (§5.2.2).
	EvPeerDead
	// EvBusyRetry: a BUSY NACK parked the current message for the slower
	// busy-retry interval (§5.2.3).
	EvBusyRetry
	// EvWindowFill: a windowed send had to queue because Config.Window
	// messages toward the destination were already unacknowledged. Seq is
	// the message sequence the send will get; Attempt the window depth.
	EvWindowFill
	// EvCumAck: a cumulative fragment acknowledgement was transmitted
	// (standalone FRAGACK or piggybacked on a reverse FRAG); Seq is the
	// highest in-order fragment sequence acknowledged.
	EvCumAck
	// EvFragRetransmit: the recovery round re-sent a message's final FRAG
	// as a §5.2.3 completion probe; Seq is its fragment sequence, Attempt
	// the retransmission round. (Hole re-sends emit EvSelectiveRetransmit.)
	EvFragRetransmit
	// EvSelectiveRetransmit: selective-repeat recovery re-sent one
	// unacknowledged hole while withholding SACKed successors; Seq is the
	// fragment sequence, Attempt the recovery round (1 for a
	// fast retransmit triggered by duplicate cumulative acks).
	EvSelectiveRetransmit
	// EvSackTx: a cumulative fragment acknowledgement carried a SACK
	// bitmap reporting out-of-order fragments; Seq is the cumulative
	// point, Attempt the number of contiguous SACK blocks.
	EvSackTx
	// EvWindowIncrease: the AIMD controller grew the congestion window
	// after a clean window's worth of completions; Attempt is the new
	// cwnd (always <= the operator's Config.Window ceiling).
	EvWindowIncrease
	// EvWindowDecrease: the AIMD controller halved the congestion window
	// on a recovery-timer fire; Attempt is the new cwnd.
	EvWindowDecrease
)

func (k EventKind) String() string {
	switch k {
	case EvConnOpen:
		return "CONN_OPEN"
	case EvConnExpire:
		return "CONN_EXPIRE"
	case EvConnClose:
		return "CONN_CLOSE"
	case EvRetransmit:
		return "RETRANSMIT"
	case EvAckTx:
		return "ACK_TX"
	case EvAckRx:
		return "ACK_RX"
	case EvPiggybackAck:
		return "PIGGYBACK_ACK"
	case EvPeerDead:
		return "PEER_DEAD"
	case EvBusyRetry:
		return "BUSY_RETRY"
	case EvWindowFill:
		return "WINDOW_FILL"
	case EvCumAck:
		return "CUM_ACK"
	case EvFragRetransmit:
		return "FRAG_RETRANSMIT"
	case EvSelectiveRetransmit:
		return "SEL_RETRANSMIT"
	case EvSackTx:
		return "SACK_TX"
	case EvWindowIncrease:
		return "WINDOW_INC"
	case EvWindowDecrease:
		return "WINDOW_DEC"
	default:
		return "EV(?)"
	}
}

// Event is one entry of the transport's observer stream: the protocol
// machinery (retransmission, acknowledgement, connection-record lifecycle)
// that is invisible to the kernel observer above. Emitting it must never
// change protocol behavior; with no Observer installed no event is built.
//
// Construct it only under a nil-consumer guard (sodavet obszerocost).
//
//lint:event
type Event struct {
	At   sim.Time
	Kind EventKind
	// Node is the endpoint the event happened on; Peer the other side.
	Node frame.MID
	Peer frame.MID
	// Seq is the sequence number concerned (retransmit/ack events).
	Seq uint8
	// Attempt is the transmission count for EvRetransmit (2 = first
	// retransmission).
	Attempt int
}

// Config sets protocol timing.
type Config struct {
	// MPL, R, A are the Delta-t bounds (§5.2.2).
	MPL time.Duration
	R   time.Duration
	A   time.Duration
	// RetransInterval is the base retransmission period; each attempt
	// multiplies it by RetransBackoff, and RetransJitter of random extra
	// delay avoids lockstep (§5.2.2).
	RetransInterval time.Duration
	RetransBackoff  float64
	RetransJitter   time.Duration
	// BusyRetryInterval is the (slightly slower) retry period after a
	// BUSY NACK (§5.2.3).
	BusyRetryInterval time.Duration
	// LineBytesPerSec estimates the medium's rate so retransmission
	// waits scale with frame size (a 2000-byte frame takes 16 ms on the
	// thesis's 1 Mbit Megalink — longer than the base interval).
	LineBytesPerSec int64
	// Window is the sliding-window depth in messages: how many reliable
	// messages may be unacknowledged toward one destination at once.
	// Values <= 1 select the paper-faithful alternating-bit stop-and-wait
	// framing (§5.2.2), bit-identical to the pre-window transport; values
	// > 1 route all reliable traffic through the windowed framing with
	// message fragmentation (window.go, DESIGN.md §11), clamped to
	// MaxWindowMessages.
	Window int
	Costs  Costs
	// Observer, when non-nil, receives the endpoint's protocol events
	// (see Event). It must never influence protocol behavior; the soda
	// network's event stream installs it on every node's endpoint.
	Observer func(Event)
}

// DefaultConfig returns timing roughly calibrated to the thesis's
// PDP-11/Megalink implementation.
func DefaultConfig() Config {
	return Config{
		MPL:               20 * time.Millisecond,
		R:                 100 * time.Millisecond,
		A:                 2 * time.Millisecond,
		RetransInterval:   12 * time.Millisecond,
		RetransBackoff:    1.5,
		RetransJitter:     2 * time.Millisecond,
		BusyRetryInterval: 4 * time.Millisecond,
		LineBytesPerSec:   125_000,
		Costs: Costs{
			ProtocolPerFrame:  500 * time.Microsecond,
			ConnTimerPerFrame: 250 * time.Microsecond,
			RetransTimer:      350 * time.Microsecond,
			CopyPerByte:       3 * time.Microsecond,
		},
	}
}

// Delta returns Δt = MPL + R + A.
func (c Config) Delta() time.Duration { return c.MPL + c.R + c.A }

// ConnLifetime is the silence interval after which a connection record is
// discarded and any sequence number is accepted again: MPL + Δt.
func (c Config) ConnLifetime() time.Duration { return c.MPL + c.Delta() }

// DeadAfter is the no-response interval after which the destination is
// reported dead: MPL + Δt (§5.2.2).
func (c Config) DeadAfter() time.Duration { return c.MPL + c.Delta() }

// QuietPeriod is how long a recovering node must stay silent before
// rejoining the network: 2·MPL + Δt (§5.2.2).
func (c Config) QuietPeriod() time.Duration { return 2*c.MPL + c.Delta() }

// Hooks are the upper layer's callbacks. All run in simulation context.
type Hooks struct {
	// OnData is invoked for each newly delivered DATA payload and must
	// return the disposition. Under the windowed framing the payload is a
	// buffer the endpoint assembled for this one delivery, which the hook
	// then owns; under stop-and-wait it is a read-only view of the wire
	// buffer the medium shares with every receiver of the frame
	// (Endpoint.DeliversOwned tells which).
	OnData func(src frame.MID, payload []byte) Decision
	// OnDatagram is invoked for unreliable datagrams (may be nil).
	OnDatagram func(src frame.MID, payload []byte)
	// OnHoldExpired is invoked when a hold auto-resolves (may be nil).
	OnHoldExpired func(src frame.MID, applied Verdict)
}

type cachedReplyKind uint8

const (
	replyNone cachedReplyKind = iota // resolved by piggyback; nothing to replay
	replyAck
	replyNack
)

type cachedReply struct {
	kind    cachedReplyKind
	err     frame.ErrCode
	payload []byte
}

// peer is the per-peer Delta-t record (§5.2.2), one per peer under either
// framing. It owns what the timer discipline makes common to every
// connection: the record's lifetime and receive expiry, the death clock,
// the reconnect quiet period, the queue of unsent messages, and the hold
// and deferred-ack slots. The framing-specific halves hang off it: ab for
// the alternating-bit stop-and-wait wire, ws/wr for the windowed one
// (window.go), which a Window <= 1 endpoint never creates.
type peer struct {
	// open reports that a connection record exists (EvConnOpen was
	// emitted). A peer-dead verdict closes it; a crash drops it.
	open bool
	// lastHeard is when the peer was last heard on this record; the
	// receive half lapses after ConnLifetime of silence.
	lastHeard sim.Time

	// The death clock: the no-response deadline of the traffic in flight,
	// the current retry interval, the attempts reported to the observer,
	// and the generation that cancels superseded timers.
	deadline sim.Time
	interval time.Duration
	attempts int
	timerGen int
	// quietUntil is the reconnect quiet deadline armed by a peer-dead
	// verdict: the sender restarts its sequence space, which is only safe
	// once the peer's receive record has lapsed — and that record lapses
	// on ConnLifetime of silence (§5.2.2). Sending sooner would keep the
	// stale record alive with frames it can only misread.
	quietUntil sim.Time

	// queue holds reliable messages not yet started, urgent first.
	queue []*msg
	// hold is a delivered frame whose acknowledgement the upper layer
	// withholds; defAck a consumed frame whose plain acknowledgement waits
	// for a piggyback (stop-and-wait only). Each is nil or points at its
	// slot's own record, holdRec or defAckRec. A timer that finds the slot
	// empty or at another generation is stale.
	hold      *held
	defAck    *held
	holdRec   held
	defAckRec held

	ab altBit
	ws *wsend
	wr *wrecv
}

// altBit is the stop-and-wait half of a peer record: the alternating send
// bit, the last consumed receive sequence with its cached reply (§5.2.3),
// and the one message in flight.
type altBit struct {
	sendSeq   uint8
	recvValid bool
	recvSeq   uint8
	cached    cachedReply
	cur       *msg
	sent      bool // cur transmitted at least once
}

// consume records that frame seq was consumed and how it was answered.
func (ab *altBit) consume(seq uint8, cr cachedReply) {
	ab.recvValid = true
	ab.recvSeq = seq
	ab.cached = cr
}

// held is a delivered frame whose acknowledgement is withheld. gen counts
// the uses of the peer slot the record belongs to.
type held struct {
	seq    uint8
	expiry Verdict
	gen    int
}

// occupy starts a new use of the slot record h for frame seq.
func (h *held) occupy(seq uint8, expiry Verdict) *held {
	h.gen++
	h.seq, h.expiry = seq, expiry
	return h
}

// msg is one reliable message queued toward a destination. A completed
// message goes back to its endpoint's freelist; gen counts its uses, so a
// transmission still scheduled for an earlier use is stale.
type msg struct {
	gen     int
	payload []byte
	retrans []byte // stop-and-wait retransmissions send this when non-nil (§5.2.3)
	cb      func(Result)
	// urgent messages (kernel replies: accepts, re-sent accept data)
	// jump ahead of queued requests and preempt a busy-retrying one —
	// an ACCEPT can never be prevented from executing (§5.2.2).
	urgent bool
	// piggyAck acknowledges the peer's DATA with this seq on every
	// stop-and-wait transmission of this message.
	piggyAck    bool
	piggyAckSeq uint8

	// Windowed framing (window.go).
	msgSeq  uint8
	lastSeq uint8 // frame seq of the final fragment, for probe duplicates
	parked  bool  // busy-parked awaiting the slow retry
	done    bool  // completed; stale scheduled work checks it
	fragSz  int
	frags   int
	next    int // next fragment index of the current transmission pass
	parkGen int
}

// enqueue queues m: urgent messages go behind earlier urgent ones and ahead
// of ordinary traffic.
func (p *peer) enqueue(m *msg) {
	if m.urgent {
		p.requeue(m)
		return
	}
	//lint:allow noalloc (amortized: queue storage grows to peak depth, then reused)
	p.queue = append(p.queue, m)
}

// dequeue removes and returns the head of the queue, keeping the queue's
// storage for the next enqueue.
func (p *peer) dequeue() *msg {
	m := p.queue[0]
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = nil
	p.queue = p.queue[:n]
	return m
}

// requeue inserts m behind every queued urgent message and ahead of the
// ordinary ones.
func (p *peer) requeue(m *msg) {
	pos := 0
	for pos < len(p.queue) && p.queue[pos].urgent {
		pos++
	}
	//lint:allow noalloc (amortized: queue storage grows to peak depth, then reused)
	p.queue = append(p.queue, nil)
	copy(p.queue[pos+1:], p.queue[pos:])
	p.queue[pos] = m
}

// Endpoint is one node's transport instance.
type Endpoint struct {
	k     *sim.Kernel
	cfg   Config
	mid   frame.MID
	iface wire.Iface
	hooks Hooks
	peers map[frame.MID]*peer
	// recvReadyAt serializes windowed receive charges: the processor
	// finishes frames in arrival order, so a small fragment's (cheaper)
	// charge cannot complete before a larger fragment that arrived first —
	// which would hand the receiver the frames out of sequence, bank the
	// early one as out-of-order and answer with a spurious duplicate ack
	// on a wire that lost nothing. The receive-side mirror of
	// wsend.readyAt. Unused when Window <= 1.
	recvReadyAt sim.Time
	totals      CostTotals
	ledger      Ledger
	crashed     bool
	epoch       int // bumped on crash; stale scheduled work checks it
	// timers and msgs recycle the records of scheduled actions and of
	// completed messages (see timer and msg).
	timers []*timer
	msgs   []*msg
}

// windowed reports whether the windowed framing is in effect.
func (e *Endpoint) windowed() bool { return e.cfg.Window > 1 }

// New attaches a transport endpoint for mid to a frame-carrying medium:
// the simulated bus (bus.Bus.Wire) or the socket backend (internal/netx).
// The endpoint never sees which one it got — every wire interaction goes
// through the wire.Iface seam.
func New(k *sim.Kernel, w wire.Network, mid frame.MID, cfg Config, hooks Hooks) (*Endpoint, error) {
	if hooks.OnData == nil {
		return nil, fmt.Errorf("deltat: OnData hook is required")
	}
	e := &Endpoint{
		k:     k,
		cfg:   cfg,
		mid:   mid,
		hooks: hooks,
		peers: make(map[frame.MID]*peer),
	}
	iface, err := w.Attach(mid, e.receive)
	if err != nil {
		return nil, err
	}
	e.iface = iface
	return e, nil
}

// MID reports the endpoint's machine id.
func (e *Endpoint) MID() frame.MID { return e.mid }

// emit reports one transport event: it counts the event in the ledger,
// then delivers it to the observer, stamping time and place. No event is
// even built when no observer is installed, preserving the
// zero-overhead-when-disabled contract.
func (e *Endpoint) emit(kind EventKind, peer frame.MID, seq uint8, attempt int) {
	//lint:allow noalloc (external: count only adds to sync/atomic counters, which never allocate)
	e.ledger.count(kind, attempt)
	if e.cfg.Observer != nil {
		//lint:allow noalloc (observer: nil-guarded event emission, absent on measured runs)
		e.cfg.Observer(Event{At: e.k.Now(), Kind: kind, Node: e.mid, Peer: peer, Seq: seq, Attempt: attempt})
	}
}

// Config returns the protocol configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// DeliversOwned reports whether OnData hands over payloads the hook owns
// (the windowed framing) rather than read-only views of a shared wire
// buffer (stop-and-wait); see Hooks.OnData.
func (e *Endpoint) DeliversOwned() bool { return e.windowed() }

// Ledger returns the endpoint's live transport counters.
func (e *Endpoint) Ledger() *Ledger { return &e.ledger }

// Totals returns the accumulated cost buckets.
func (e *Endpoint) Totals() CostTotals { return e.totals }

// ResetTotals zeroes the cost buckets (measurement windows).
func (e *Endpoint) ResetTotals() { e.totals = CostTotals{} }

// Send queues payload for reliable delivery to dst. retrans, when non-nil,
// replaces the payload on retransmissions (SODA strips bulk data from
// REQUEST retries, §5.2.3). cb receives exactly one Result unless the local
// node crashes first. The windowed framing retransmits fragments verbatim,
// so retrans is ignored when Config.Window > 1.
//
//lint:hotpath
func (e *Endpoint) Send(dst frame.MID, payload, retrans []byte, cb func(Result)) {
	e.send(dst, e.newMsg(payload, retrans, cb))
}

// SendUrgent is Send with reply priority: the message is queued ahead of
// ordinary traffic, and if the current outgoing message is parked in a
// BUSY-retry backoff it is preempted (swapped back into the queue) so the
// reply goes out first. SODA's ACCEPT path requires this — a busy-retrying
// REQUEST toward a peer must never block the reply that peer is waiting
// for (§5.2.2).
//
//lint:hotpath
func (e *Endpoint) SendUrgent(dst frame.MID, payload, retrans []byte, cb func(Result)) {
	m := e.newMsg(payload, retrans, cb)
	m.urgent = true
	e.send(dst, m)
}

// SendResolvingHold is Send plus piggybacked acknowledgement: if a hold for
// a frame from dst is pending, this message carries its ACK (resolving the
// hold), and the function reports true. With no hold pending it behaves
// exactly like Send and reports false.
// The piggyback only applies when this message transmits immediately: if
// earlier traffic occupies the outbox, the acknowledgement is released as a
// plain ACK right away — the peer may be blocked waiting for it, and the
// queued traffic may be blocked on the peer (§5.2.2's no-deadlock rule).
//
//lint:hotpath
func (e *Endpoint) SendResolvingHold(dst frame.MID, payload, retrans []byte, cb func(Result)) bool {
	// Wire format: only a stop-and-wait DATA frame carries a piggybacked
	// ACK. Windowed message acknowledgements bypass the window, so there
	// the hold is released as a plain ACK and the reply travels as an
	// ordinary urgent message.
	if e.windowed() || e.OutboxBusy(dst) {
		had := e.ResolveHold(dst, Decision{Verdict: VerdictAck})
		e.SendUrgent(dst, payload, retrans, cb)
		return had
	}
	m := e.newMsg(payload, retrans, cb)
	p := e.peer(dst)
	h := p.hold
	if h != nil {
		p.hold = nil // cancels the expiry
		// Duplicates of the held frame are answered by the
		// retransmission of this DATA (it always carries the piggyback),
		// so nothing is cached for replay.
		e.conn(dst).ab.consume(h.seq, cachedReply{kind: replyNone})
		m.piggyAck = true
		m.piggyAckSeq = h.seq
	}
	e.send(dst, m)
	return h != nil
}

// newMsg takes a message record from the freelist, or allocates one.
func (e *Endpoint) newMsg(payload, retrans []byte, cb func(Result)) *msg {
	var m *msg
	if n := len(e.msgs); n > 0 {
		m = e.msgs[n-1]
		e.msgs = e.msgs[:n-1]
	} else {
		//lint:allow noalloc (amortized: one record per new peak of messages in flight or queued)
		m = &msg{}
	}
	m.payload, m.retrans, m.cb = payload, retrans, cb
	return m
}

// freeMsg returns a completed message to the freelist.
func (e *Endpoint) freeMsg(m *msg) {
	*m = msg{gen: m.gen + 1}
	//lint:allow noalloc (amortized: the freelist grows to the peak number of messages in flight or queued)
	e.msgs = append(e.msgs, m)
}

// timerKind names the action a scheduled timer record performs.
type timerKind uint8

const (
	timerRecv       timerKind = iota + 1 // interpret a received frame once its charge elapses
	timerTransmit                        // put the current DATA frame on the wire
	timerRetransmit                      // the retransmission timeout of a DATA frame
	timerAck                             // put an acknowledgement on the wire
	timerDefAck                          // the plain-ack fallback of a deferred acknowledgement
	timerHoldExpiry                      // auto-resolve a hold

	// The windowed framing's actions (window.go).
	timerFrag       // put a FRAG on the wire
	timerRecover    // the recovery timer of a destination's outstanding fragments
	timerUnpark     // end a busy-refused message's retry wait
	timerDeliver    // hand a reassembled message to the upper layer
	timerLateAck    // the completion ack of a message consumed with VerdictAckDeferred
	timerCumAckWait // the piggyback wait before a standalone cumulative ack
	timerCumAck     // put that cumulative ack on the wire
	timerFragAck    // put an immediate, SACK-bearing FRAGACK on the wire
)

// timer is one scheduled action of either framing. Records live on their
// endpoint's freelist: fire is bound once when a record is first allocated,
// the action's state lives in the fields, and a record goes back to the
// freelist once it has fired, so the steady state schedules without
// allocating. Every action is dropped if the endpoint crashed since it was
// scheduled (epoch).
type timer struct {
	e     *Endpoint
	fire  func()
	kind  timerKind
	epoch int
	peer  frame.MID
	p     *peer
	m     *msg
	// ws and wr are the windowed send and receive halves the action was
	// scheduled for; a peer-dead verdict or a record expiry replaces them.
	ws *wsend
	wr *wrecv
	// gen is the generation the action was scheduled at: the message's
	// (timerTransmit, timerFrag, timerUnpark), the peer's timerGen
	// (timerRetransmit, timerRecover), the held slot's (timerDefAck,
	// timerHoldExpiry), or the receive half's ackGen (timerCumAckWait).
	gen int
	// parkGen is the message's park generation (timerUnpark).
	parkGen int
	seq     uint8 // sequence number: the acknowledged frame's, a FRAG's, or the delivered message's
	idx     int   // fragment index (timerFrag)
	first   bool
	data    []byte               // the DATA or FRAG payload, the ACK's reply, or the delivered message
	f       frame.TransportFrame // the received frame (timerRecv)
}

// newTimer takes a timer record from the freelist, or allocates one.
func (e *Endpoint) newTimer(kind timerKind, peer frame.MID, p *peer) *timer {
	var t *timer
	if n := len(e.timers); n > 0 {
		t = e.timers[n-1]
		e.timers = e.timers[:n-1]
	} else {
		//lint:allow noalloc (amortized: one record per new peak of pending endpoint actions)
		t = &timer{e: e}
		//lint:allow noalloc (amortized: bound once per record; the record is reused)
		t.fire = t.run
	}
	t.kind, t.epoch, t.peer, t.p = kind, e.epoch, peer, p
	return t
}

// freeTimer clears t and returns it to the freelist.
func (e *Endpoint) freeTimer(t *timer) {
	*t = timer{e: e, fire: t.fire}
	//lint:allow noalloc (amortized: the freelist grows to the peak number of pending endpoint actions)
	e.timers = append(e.timers, t)
}

// run performs the scheduled action, then recycles the record.
//
//lint:hotpath
func (t *timer) run() {
	e := t.e
	if t.epoch == e.epoch {
		switch t.kind {
		case timerRecv:
			e.process(&t.f)
		case timerTransmit:
			e.transmitData(t)
		case timerRetransmit:
			e.retransmit(t)
		case timerAck:
			e.transmitAck(t)
		case timerDefAck:
			if da := t.p.defAck; da != nil && da.gen == t.gen {
				t.p.defAck = nil
				e.sendAck(t.peer, t.p, da.seq, nil)
			}
		case timerHoldExpiry:
			e.expireHold(t)
		case timerFrag:
			e.wFireFrag(t)
		case timerRecover:
			e.wRecover(t)
		case timerUnpark:
			e.wUnpark(t)
		case timerDeliver:
			e.wHandOver(t)
		case timerLateAck:
			e.sendAck(t.peer, t.p, t.seq, nil)
		case timerCumAckWait:
			e.wCumAckWaited(t)
		case timerCumAck:
			e.wTransmitFragAck(t.peer, t.wr)
		case timerFragAck:
			if t.p.wr == t.wr && t.wr.valid {
				e.wTransmitFragAck(t.peer, t.wr)
			}
		}
	}
	e.freeTimer(t)
}

// HasHold reports whether a frame from src is currently held.
func (e *Endpoint) HasHold(src frame.MID) bool { return e.peer(src).hold != nil }

// OutboxBusy reports whether a reliable message toward dst is in flight or
// queued. Stop-and-wait admits one outstanding DATA per direction, so a
// reply that must not wait (SODA's ACCEPT, §5.2.2) has to ride an
// acknowledgement instead when this is true.
func (e *Endpoint) OutboxBusy(dst frame.MID) bool {
	p := e.peer(dst)
	return p.ab.cur != nil || len(p.queue) > 0 || (p.ws != nil && len(p.ws.inflight) > 0)
}

// ResolveHold disposes of a held frame from src with an explicit verdict
// (VerdictHold is invalid here). It reports false if no hold is pending —
// the hold already auto-resolved.
//
//lint:hotpath
func (e *Endpoint) ResolveHold(src frame.MID, dec Decision) bool {
	p := e.peer(src)
	h := p.hold
	if h == nil {
		return false
	}
	p.hold = nil
	e.applyVerdict(src, h.seq, dec)
	return true
}

// FailAllHolds resolves every pending hold with an error NACK. The SODA
// kernel uses it when its client dies: senders whose frames were being held
// learn promptly that the peer state is gone. No-op on a crashed endpoint
// (its holds are already discarded).
func (e *Endpoint) FailAllHolds(code frame.ErrCode) {
	if e.crashed {
		return
	}
	for _, src := range sortediter.Keys(e.peers) { // deterministic resolution order
		if e.peers[src].hold != nil {
			e.ResolveHold(src, Decision{Verdict: VerdictError, Err: code})
		}
	}
}

// SendDatagram transmits an unreliable one-shot frame; dst may be
// BroadcastMID. No acknowledgement, retransmission or sequencing applies.
func (e *Endpoint) SendDatagram(dst frame.MID, payload []byte) {
	if e.crashed {
		return
	}
	d := e.chargeSend(false, 0)
	epoch := e.epoch
	e.k.After(d, func() {
		if epoch != e.epoch {
			return
		}
		e.transmit(&frame.TransportFrame{
			Kind:    frame.TransportDatagram,
			Src:     e.mid,
			Dst:     dst,
			Payload: payload,
		})
	})
}

// Crash drops all transport state and disconnects from the bus. Pending
// Send callbacks are discarded (the kernel above resets with us).
func (e *Endpoint) Crash() {
	e.crashed = true
	e.epoch++
	e.iface.Down()
	e.peers = make(map[frame.MID]*peer)
	e.recvReadyAt = 0
}

// Quiescent reports whether the endpoint has fully settled: nothing queued
// or unacknowledged toward any destination, no held or deferred-ack frames,
// no partially reassembled or undelivered windowed messages, and no
// acknowledgement still owed. After a drained simulation run (sim.Kernel.Run
// returned), a non-quiescent endpoint means the protocol leaked state —
// the property battery asserts this after every fault schedule.
func (e *Endpoint) Quiescent() bool {
	for _, mid := range sortediter.Keys(e.peers) {
		p := e.peers[mid]
		if p.hold != nil || p.defAck != nil || p.ab.cur != nil || len(p.queue) > 0 {
			return false
		}
		if ws := p.ws; ws != nil && (len(ws.inflight) > 0 || len(ws.frames) > 0) {
			return false
		}
		if wr := p.wr; wr != nil && (wr.delivering || wr.busyWait || wr.ackPending || wr.asmOpen ||
			len(wr.buffered) > 0 || len(wr.ooo) > 0) {
			return false
		}
	}
	return true
}

// Reboot rejoins the network after the Delta-t quiet period (2·MPL+Δt) and
// then invokes ready. Sends issued before ready are dropped.
func (e *Endpoint) Reboot(ready func()) {
	epoch := e.epoch
	e.k.After(e.cfg.QuietPeriod(), func() {
		if epoch != e.epoch {
			return // crashed again while quiet
		}
		e.crashed = false
		e.iface.Up()
		if ready != nil {
			ready()
		}
	})
}

// peer returns mid's record, creating it (closed) on first use.
func (e *Endpoint) peer(mid frame.MID) *peer {
	p := e.peers[mid]
	if p == nil {
		//lint:allow noalloc (steady-state: one record per peer, reused across transactions)
		p = &peer{}
		//lint:allow noalloc (steady-state: map entry created once per peer)
		e.peers[mid] = p
	}
	return p
}

// open opens p's connection record if it is closed.
func (e *Endpoint) open(mid frame.MID, p *peer) {
	if p.open {
		return
	}
	p.open = true
	p.lastHeard = e.k.Now()
	e.emit(EvConnOpen, mid, 0, 0)
}

// conn returns mid's open record with the lazy Delta-t expiry applied:
// after ConnLifetime of silence the RECEIVE half is discarded — any
// sequence number is accepted again ("take any SN", §5.2.2). The send half
// never resets outside a peer-dead verdict or a crash: resetting it
// independently of the peer's record lifetime risks a fresh message
// aliasing a stale duplicate, exactly the confusion Delta-t exists to
// prevent. A record whose frame is still held (unacknowledged), or whose
// windowed receive half still owes a delivery, is never reclaimed.
func (e *Endpoint) conn(mid frame.MID) *peer {
	p := e.peer(mid)
	e.open(mid, p)
	if p.hold != nil || e.k.Now()-p.lastHeard <= e.cfg.ConnLifetime() {
		return p
	}
	if wr := p.wr; wr != nil {
		if wr.valid && !wr.delivering && len(wr.buffered) == 0 {
			e.emit(EvConnExpire, mid, wr.cum, 0)
			*wr = wrecv{}
		}
		return p
	}
	if p.ab.recvValid {
		e.emit(EvConnExpire, mid, p.ab.recvSeq, 0)
	}
	p.ab.recvValid = false
	p.ab.cached = cachedReply{}
	return p
}

// quiet reports whether p is inside its reconnect quiet period: nothing of
// the restarted sequence space has left yet, so an inbound acknowledgement
// can only belong to the previous, dead connection.
func (e *Endpoint) quiet(p *peer) bool { return e.k.Now() < p.quietUntil }

// startClock starts the death clock for new traffic whose first frame can
// leave at from.
func (e *Endpoint) startClock(p *peer, from sim.Time) {
	p.deadline = from + e.cfg.DeadAfter()
	p.interval = e.cfg.RetransInterval
	p.attempts = 0
}

// backoff slows the retry rate after an unanswered attempt (§5.2.2),
// capped so a live-but-lossy peer still sees several attempts per
// death-detection window.
func (e *Endpoint) backoff(p *peer) {
	if e.cfg.RetransBackoff <= 1 {
		return
	}
	p.interval = time.Duration(float64(p.interval) * e.cfg.RetransBackoff)
	if max := e.cfg.DeadAfter() / 6; p.interval > max {
		p.interval = max
	}
}

// jitter draws the random extra retransmission wait that keeps peers out of
// lockstep (§5.2.2).
func (e *Endpoint) jitter() time.Duration {
	if e.cfg.RetransJitter <= 0 {
		return 0
	}
	//lint:allow noalloc (external: math/rand's Int63n draws without allocating, outside the module-local proof)
	return time.Duration(e.k.Rand().Int63n(int64(e.cfg.RetransJitter) + 1))
}

// peerDead reports dst dead: every message in flight or queued fails, both
// halves of the connection record are discarded, and the reconnect quiet
// period starts.
func (e *Endpoint) peerDead(dst frame.MID, p *peer) {
	var failed []*msg
	if p.ab.cur != nil {
		//lint:allow noalloc (cold: peer-death teardown)
		failed = append(failed, p.ab.cur)
	}
	if p.ws != nil {
		//lint:allow noalloc (cold: peer-death teardown)
		failed = append(failed, p.ws.inflight...)
	}
	//lint:allow noalloc (cold: peer-death teardown)
	failed = append(failed, p.queue...)
	p.queue = nil
	p.timerGen++
	e.emit(EvPeerDead, dst, p.ab.sendSeq, p.attempts)
	if p.open {
		e.emit(EvConnClose, dst, p.ab.sendSeq, 0)
	}
	p.open = false
	p.ab = altBit{}
	p.ws, p.wr = nil, nil
	// The peer may be alive (loss, not death) with a receive record that
	// only ConnLifetime of silence can clear. The RetransInterval pad
	// keeps the expiry comparison strict even against frames still on the
	// wire.
	p.quietUntil = e.k.Now() + e.cfg.ConnLifetime() + e.cfg.RetransInterval
	for _, m := range failed {
		m.done = true
		m.parkGen++
		if m.cb != nil {
			//lint:allow noalloc (cold: peer-death teardown)
			m.cb(Result{Kind: ResultPeerDead})
		}
	}
}

// send queues m toward dst and starts whatever the framing can send now.
func (e *Endpoint) send(dst frame.MID, m *msg) {
	if e.crashed {
		return
	}
	p := e.peer(dst)
	if e.windowed() {
		// Wire format: the windowed framing fragments and pipelines.
		e.wEnqueue(dst, p, m)
		return
	}
	p.enqueue(m)
	e.startNext(dst, p)
}

func (e *Endpoint) startNext(dst frame.MID, p *peer) {
	if p.ab.cur != nil || len(p.queue) == 0 {
		return
	}
	p.ab.cur = p.dequeue()
	p.ab.sent = false
	// After a peer-dead verdict the first frame waits out the reconnect
	// quiet period (transmitCur), and so does the no-response clock.
	e.startClock(p, max(e.k.Now(), p.quietUntil))
	e.transmitCur(dst, p)
}

func (e *Endpoint) transmitCur(dst frame.MID, p *peer) {
	m := p.ab.cur
	payload := m.payload
	if p.ab.sent && m.retrans != nil {
		payload = m.retrans
	}
	first := !p.ab.sent
	p.ab.sent = true
	d := e.chargeSend(true, len(payload))
	if e.quiet(p) {
		// Restarting the alternating bit is only safe once the peer's
		// receive record has lapsed: until then our seq 0 would read as
		// a duplicate of the dead connection's last message.
		d += p.quietUntil - e.k.Now()
	}
	t := e.newTimer(timerTransmit, dst, p)
	t.m, t.gen, t.data, t.first = m, m.gen, payload, first
	e.k.After(d, t.fire)
}

// transmitData puts the current DATA frame on the wire once its send
// charge has elapsed, unless the message completed meanwhile.
func (e *Endpoint) transmitData(t *timer) {
	dst, p, m := t.peer, t.p, t.m
	if p.ab.cur != m || m.gen != t.gen {
		return
	}
	e.conn(dst) // the first DATA frame opens the record
	// A deferred plain acknowledgement rides the first DATA frame
	// toward its peer (§5.2.3); explicit piggybacks take precedence.
	if da := p.defAck; !m.piggyAck && da != nil {
		m.piggyAck = true
		m.piggyAckSeq = da.seq
		p.defAck = nil // cancels the plain-ack fallback
	}
	f := frame.TransportFrame{
		Kind:       frame.TransportData,
		Src:        e.mid,
		Dst:        dst,
		Seq:        p.ab.sendSeq,
		ConnOpen:   true,
		AckPresent: m.piggyAck,
		AckSeq:     m.piggyAckSeq,
		Payload:    t.data,
	}
	p.attempts++
	if f.AckPresent {
		e.emit(EvPiggybackAck, dst, f.AckSeq, p.attempts)
	}
	e.transmit(&f)
	e.armRetransmit(dst, p, m, t.first)
}

func (e *Endpoint) armRetransmit(dst frame.MID, p *peer, m *msg, first bool) {
	p.timerGen++
	gen := p.timerGen
	wait := p.interval + e.wireTime(len(m.payload))*3 + e.jitter()
	if !first {
		e.backoff(p)
	}
	t := e.newTimer(timerRetransmit, dst, p)
	t.m, t.gen = m, gen
	e.k.After(wait, t.fire)
}

// retransmit is the retransmission timeout of the current DATA frame:
// it re-sends the frame, or reports the peer dead past its deadline.
func (e *Endpoint) retransmit(t *timer) {
	dst, p := t.peer, t.p
	if p.timerGen != t.gen || p.ab.cur != t.m {
		return
	}
	if e.k.Now() >= p.deadline {
		e.peerDead(dst, p)
		return
	}
	e.totals.RetransTimer += e.cfg.Costs.RetransTimer
	e.emit(EvRetransmit, dst, e.conn(dst).ab.sendSeq, p.attempts+1)
	e.transmitCur(dst, p)
}

// wireTime estimates the transmission time of a payload of n bytes, used
// to scale retransmission waits so large frames are not retried while
// still in flight.
func (e *Endpoint) wireTime(n int) time.Duration {
	bps := e.cfg.LineBytesPerSec
	if bps <= 0 {
		bps = 125_000
	}
	return time.Duration(int64(n) * int64(time.Second) / bps)
}

func (e *Endpoint) transmit(f *frame.TransportFrame) {
	e.totals.FramesSent++
	e.iface.Send(f.Dst, frame.EncodeTransport(f))
}

// receive handles a raw frame from the bus (simulation context). The
// shared decode aliases the payload into the bus's buffer, which is
// immutable by contract; everything downstream either only reads it or
// copies at the kernel-message decode (frame.Decode's reader.bytes).
//
//lint:hotpath
func (e *Endpoint) receive(raw []byte) {
	t := e.newTimer(timerRecv, 0, nil)
	f := &t.f
	if err := frame.DecodeTransportInto(f, raw); err != nil {
		e.freeTimer(t)
		return // CRC-damaged frames are silently discarded (§5.2.2)
	}
	if f.Dst != e.mid && f.Dst != frame.BroadcastMID {
		e.freeTimer(t)
		return // MID screening rejects spurious traffic (§6.12)
	}
	dataBytes := 0
	if f.Kind == frame.TransportData || f.Kind == frame.TransportFrag {
		dataBytes = len(f.Payload)
	}
	d := e.chargeRecv(f.Kind, dataBytes)
	if e.windowed() {
		// Receive timing: serialize behind earlier receive charges (see
		// recvReadyAt) so process() sees fragments in arrival order. A
		// stop-and-wait endpoint's timing is untouched.
		now := e.k.Now()
		done := now + sim.Time(d)
		if e.recvReadyAt > now {
			done = e.recvReadyAt + sim.Time(d)
		}
		e.recvReadyAt = done
		d = time.Duration(done - now)
	}
	e.k.After(d, t.fire)
}

func (e *Endpoint) process(f *frame.TransportFrame) {
	e.totals.FramesRecv++
	if f.Kind == frame.TransportDatagram {
		if e.hooks.OnDatagram != nil {
			//lint:allow noalloc (cold: datagrams serve DISCOVER, not the request round trip)
			e.hooks.OnDatagram(f.Src, f.Payload)
		}
		return
	}
	if e.windowed() {
		// Wire format: FRAG/FRAGACK traffic and message-sequenced acks.
		e.wProcess(f)
		return
	}
	p := e.conn(f.Src)
	p.lastHeard = e.k.Now()
	// Death means silence: any frame heard from the peer — including a
	// duplicate or a stale acknowledgement — proves it alive and restarts
	// the no-response clock for the outstanding message (§5.2.2 reports a
	// destination dead only when nothing is heard during MPL+Δt). The
	// refresh is monotone: a straggler from a dead connection must never
	// pull the deadline back inside the reconnect quiet period.
	if p.ab.cur != nil {
		p.deadline = max(p.deadline, e.k.Now()+e.cfg.DeadAfter())
	}
	switch f.Kind {
	case frame.TransportAck:
		e.handleAck(f.Src, p, f.Seq, f.Payload)
	case frame.TransportNack:
		e.handleNack(f.Src, p, f.Seq, f.Err)
	case frame.TransportData:
		if f.AckPresent {
			e.handleAck(f.Src, p, f.AckSeq, nil)
		}
		e.handleData(f.Src, p, f.Seq, f.Payload)
	}
}

// handleAck and handleNack ignore every answer inside the reconnect quiet
// period: nothing of the restarted sequence space has left yet, so an
// answer can only be a straggler for the dead connection's message with the
// same alternating bit — applying it would complete the new message with
// the old one's reply.
func (e *Endpoint) handleAck(src frame.MID, p *peer, seq uint8, reply []byte) {
	m := p.ab.cur
	if m == nil || e.quiet(p) {
		return // stale
	}
	if seq != p.ab.sendSeq {
		return // acknowledges something else
	}
	p.ab.cur = nil
	p.timerGen++
	e.emit(EvAckRx, src, seq, p.attempts)
	p.ab.sendSeq ^= 1
	cb := m.cb
	e.freeMsg(m)
	if cb != nil {
		//lint:allow noalloc (indirect: send-completion callback; its targets are //lint:hotpath roots in soda/internal/core)
		cb(Result{Kind: ResultAcked, Reply: reply})
	}
	e.startNext(src, p)
}

func (e *Endpoint) handleNack(src frame.MID, p *peer, seq uint8, code frame.ErrCode) {
	m := p.ab.cur
	if m == nil || e.quiet(p) || seq != p.ab.sendSeq {
		return
	}
	p.timerGen++
	if code != frame.NackBusy {
		p.ab.cur = nil
		p.ab.sendSeq ^= 1 // error NACKs consume the message
		cb := m.cb
		e.freeMsg(m)
		if cb != nil {
			//lint:allow noalloc (cold: error-NACK completion)
			cb(Result{Kind: ResultError, Err: code})
		}
		e.startNext(src, p)
		return
	}
	// The destination is alive but its handler is unavailable: reset the
	// death clock and retry at the slower busy rate (§5.2.3).
	p.deadline = e.k.Now() + e.cfg.DeadAfter()
	e.emit(EvBusyRetry, src, seq, p.attempts)
	if !m.urgent && len(p.queue) > 0 && p.queue[0].urgent {
		// A kernel reply is waiting behind this busy-retrying request; the
		// peer may be blocked on it. Preempt: the reply goes out now and
		// the request re-queues at the head of the ordinary traffic. The
		// busy NACK consumed nothing at the receiver, so reusing the
		// sequence number for a different message is sound.
		p.ab.cur = nil
		p.requeue(m)
		e.startNext(src, p)
		return
	}
	gen := p.timerGen
	epoch := e.epoch
	//lint:allow noalloc (cold: busy-retry timer)
	e.k.After(e.cfg.BusyRetryInterval, func() {
		if epoch != e.epoch || p.timerGen != gen || p.ab.cur != m {
			return
		}
		e.transmitCur(src, p)
	})
}

func (e *Endpoint) handleData(src frame.MID, p *peer, seq uint8, payload []byte) {
	if p.hold != nil {
		// A duplicate of the held frame waits for the resolution to answer
		// it; a new message while one is held cannot happen under
		// stop-and-wait, so it drops defensively.
		return
	}
	if p.ab.recvValid && seq == p.ab.recvSeq {
		e.replay(src, p, seq, p.ab.cached)
		return
	}
	//lint:allow noalloc (indirect: kernel OnData hook, itself a //lint:hotpath root in soda/internal/core)
	dec := e.hooks.OnData(src, payload)
	e.applyVerdict(src, seq, dec)
}

// replay re-answers a duplicate of a consumed message from its cached
// reply, so a lost acknowledgement is recovered without re-delivering
// (§5.2.3).
func (e *Endpoint) replay(src frame.MID, p *peer, seq uint8, cr cachedReply) {
	switch cr.kind {
	case replyAck:
		e.sendAck(src, p, seq, cr.payload)
	case replyNack:
		e.sendNack(src, p, seq, cr.err)
	case replyNone:
		// Consumed via a piggybacked ACK on a reverse DATA frame whose
		// own retransmission timer covers the loss; stay silent.
	}
}

func (e *Endpoint) applyVerdict(src frame.MID, seq uint8, dec Decision) {
	if e.windowed() {
		// Wire format: a windowed message is consumed in message-sequence
		// order and acknowledged by message sequence.
		e.wApplyVerdict(src, seq, dec)
		return
	}
	p := e.conn(src)
	switch dec.Verdict {
	case VerdictAck:
		p.ab.consume(seq, cachedReply{kind: replyAck, payload: dec.Reply})
		e.sendAck(src, p, seq, dec.Reply)
	case VerdictError:
		p.ab.consume(seq, cachedReply{kind: replyNack, err: dec.Err})
		e.sendNack(src, p, seq, dec.Err)
	case VerdictAckDeferred:
		p.ab.consume(seq, cachedReply{kind: replyAck})
		p.defAck = p.defAckRec.occupy(seq, 0)
		t := e.newTimer(timerDefAck, src, p)
		t.gen = p.defAck.gen
		e.k.After(e.cfg.A, t.fire)
	case VerdictBusy:
		// Not consumed: no record update, so the retry is processed
		// fresh.
		e.sendNack(src, p, seq, frame.NackBusy)
	case VerdictHold:
		e.hold(src, seq, dec)
	default:
		//lint:allow noalloc (cold: invalid-verdict panic)
		panic(fmt.Sprintf("deltat: invalid verdict %d", dec.Verdict))
	}
}

// hold withholds the acknowledgement of frame seq from src until the upper
// layer resolves it (ResolveHold) or the hold times out, whichever comes
// first. Shared by both framings: expiry re-enters through applyVerdict.
func (e *Endpoint) hold(src frame.MID, seq uint8, dec Decision) {
	p := e.peer(src)
	h := p.holdRec.occupy(seq, dec.ExpiryVerdict)
	p.hold = h
	timeout := dec.HoldTimeout
	if timeout < 0 {
		return // no auto expiry; the upper layer owns the hold
	}
	if timeout == 0 {
		timeout = e.cfg.A
	}
	if h.expiry == 0 {
		h.expiry = VerdictAck
	}
	t := e.newTimer(timerHoldExpiry, src, p)
	t.gen = h.gen
	e.k.After(timeout, t.fire)
}

// expireHold auto-resolves a hold that is still pending when its timeout
// fires.
func (e *Endpoint) expireHold(t *timer) {
	src, p := t.peer, t.p
	h := p.hold
	if h == nil || h.gen != t.gen {
		return
	}
	p.hold = nil
	expiry := h.expiry
	e.applyVerdict(src, h.seq, Decision{Verdict: expiry})
	if e.hooks.OnHoldExpired != nil {
		//lint:allow noalloc (cold: hold expiry fires only when the upper layer stalls)
		e.hooks.OnHoldExpired(src, expiry)
	}
}

// sendAck acknowledges message seq from dst, carrying the upper layer's
// reply (§5.2.3).
func (e *Endpoint) sendAck(dst frame.MID, p *peer, seq uint8, reply []byte) {
	e.emit(EvAckTx, dst, seq, 0)
	d := e.chargeSend(false, 0)
	t := e.newTimer(timerAck, dst, p)
	t.seq, t.data = seq, reply
	e.k.After(d, t.fire)
}

// transmitAck puts a scheduled acknowledgement on the wire.
func (e *Endpoint) transmitAck(t *timer) {
	f := frame.TransportFrame{
		Kind:     frame.TransportAck,
		Src:      e.mid,
		Dst:      t.peer,
		Seq:      t.seq,
		ConnOpen: true,
		Payload:  t.data,
	}
	e.attachCumAck(&f, t.p)
	e.transmit(&f)
}

// sendNack refuses message seq from dst (BUSY) or reports an error code.
func (e *Endpoint) sendNack(dst frame.MID, p *peer, seq uint8, code frame.ErrCode) {
	d := e.chargeSend(false, 0)
	epoch := e.epoch
	//lint:allow noalloc (cold: NACKs are recovery traffic)
	e.k.After(d, func() {
		if epoch != e.epoch {
			return
		}
		//lint:allow noalloc (cold: NACKs are recovery traffic)
		f := &frame.TransportFrame{
			Kind: frame.TransportNack,
			Src:  e.mid,
			Dst:  dst,
			Seq:  seq,
			Err:  code,
			// Wire format: the stop-and-wait NACK has always gone out
			// without the flag, and the goldens pin its bytes.
			ConnOpen: e.windowed(),
		}
		e.attachCumAck(f, p)
		e.transmit(f)
	})
}

// attachCumAck makes an outgoing frame carry the reverse direction's
// cumulative fragment acknowledgement, superseding any standalone FRAGACK
// pending (§5.2.3's piggyback preference). It does nothing until a windowed
// receive half has adopted the peer's stream — so never under stop-and-wait.
func (e *Endpoint) attachCumAck(f *frame.TransportFrame, p *peer) {
	wr := p.wr
	if wr == nil || !wr.valid {
		return
	}
	f.AckPresent = true
	f.AckSeq = wr.cum
	wr.ackGen++
	wr.ackPending = false
	e.emit(EvCumAck, f.Dst, wr.cum, 0)
}

// chargeSend accounts the CPU cost of emitting a frame and returns the
// processing delay before it reaches the bus.
func (e *Endpoint) chargeSend(data bool, payloadLen int) time.Duration {
	cs := e.cfg.Costs
	d := cs.ProtocolPerFrame + cs.ConnTimerPerFrame
	e.totals.Protocol += cs.ProtocolPerFrame
	e.totals.ConnTimer += cs.ConnTimerPerFrame
	if data {
		d += cs.RetransTimer
		e.totals.RetransTimer += cs.RetransTimer
		cp := time.Duration(payloadLen) * cs.CopyPerByte
		d += cp
		e.totals.Copy += cp
	}
	return d
}

// chargeRecv accounts the CPU cost of accepting a frame from the bus and
// returns the processing delay before it is interpreted.
func (e *Endpoint) chargeRecv(kind frame.TransportKind, dataLen int) time.Duration {
	cs := e.cfg.Costs
	d := cs.ProtocolPerFrame + cs.ConnTimerPerFrame
	e.totals.Protocol += cs.ProtocolPerFrame
	e.totals.ConnTimer += cs.ConnTimerPerFrame
	switch kind {
	case frame.TransportAck, frame.TransportNack, frame.TransportFragAck:
		d += cs.RetransTimer
		e.totals.RetransTimer += cs.RetransTimer
	case frame.TransportData, frame.TransportFrag:
		cp := time.Duration(dataLen) * cs.CopyPerByte
		d += cp
		e.totals.Copy += cp
	}
	return d
}
