// Windowed framing for the Delta-t endpoint (Config.Window > 1).
//
// The stop-and-wait framing in deltat.go admits one outstanding DATA frame
// per direction, which caps bulk throughput at one frame per round trip. The
// windowed framing keeps every Delta-t property — timer-based connection
// records, duplicate suppression, death detection by silence, the busy/urgent
// no-deadlock rule — but pipelines traffic two ways:
//
//   - up to Config.Window reliable MESSAGES may be unacknowledged toward one
//     destination at once (the window is counted in messages, matching the
//     paper's per-request accounting);
//   - each message is cut into FRAG frames of at most DefaultFragSize
//     payload bytes, numbered in a per-link frame-sequence stream that the
//     receiver acknowledges cumulatively.
//
// Frame sequence numbers and message sequence numbers are uint8 serial
// numbers; correctness requires the outstanding span to stay below half the
// space, which maxInflightFrags and MaxWindowMessages guarantee.
//
// Loss recovery is selective repeat (DESIGN.md §12): the receiver buffers
// out-of-order fragments in a bounded per-peer map and reports them to the
// sender in a SACK bitmap riding every standalone FRAGACK; the sender
// retransmits only the holes — on the recovery timer, or early via
// fast-retransmit when fastRetransmitDupAcks duplicate cumulative acks
// arrive. An AIMD controller sizes the effective message window (cwnd): it
// starts at the operator's Config.Window ceiling (the LAN's capacity is
// known, so the search runs downward from evidence of loss rather than
// upward from 1), halves on every recovery-timer fire, and regrows by one
// message per clean window's worth of completions, never exceeding the
// ceiling.
//
// Message completion is signalled separately by a TransportAck carrying the
// message sequence (and any reply payload), exactly like the stop-and-wait
// path — so a lost completion ack is recovered by the §5.2.3 cached-reply
// replay when a duplicate of the message's final fragment arrives.
//
// Everything else lives in the per-peer record both framings share
// (deltat.go): the record's lifetime and receive expiry, the death clock,
// the peer-dead teardown and reconnect quiet period, the message queue, the
// hold slot, and acknowledgement and replay. This file holds only the send
// half (ws) and receive half (wr) that FRAG framing adds. A Window <= 1
// endpoint never creates either, so the stop-and-wait wire stays
// bit-identical to the pre-window transport.
package deltat

import (
	"time"

	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
)

// DefaultFragSize is the FRAG payload cap. 1024 keeps a full-size fragment
// close to the thesis's maximum Megalink frame while cutting a 1000-word
// message into just two frames.
const DefaultFragSize = 1024

// MaxWindowMessages clamps Config.Window so message sequence numbers stay
// within half the uint8 serial space. Callers that echo the configured
// window back to an operator (sweep.Spec) reject anything above it rather
// than report a depth that never ran.
const MaxWindowMessages = 32

const (
	// maxInflightFrags bounds unacknowledged FRAG frames per destination,
	// keeping frame sequence numbers within half the serial space.
	maxInflightFrags = 64
	// maxFragsPerMsg bounds fragments per message (FragIndex is uint8);
	// larger messages get a proportionally larger fragment size.
	maxFragsPerMsg = 256
	// replyCacheCap bounds the per-peer cache of message replies kept for
	// duplicate replay: twice the window, so a reply outlives every
	// message the sender can still be probing for.
	replyCacheCap = 2 * MaxWindowMessages
	// sackSpan is how many sequence numbers past cum+1 the SACK bitmap
	// covers (64 bits; cum+1 is by definition the first hole and needs no
	// bit). Because maxInflightFrags == sackSpan, a compliant sender's
	// whole outstanding span is always representable.
	sackSpan = 64
	// maxOOOFrags bounds the per-peer out-of-order reassembly buffer. A
	// compliant sender can have at most sackSpan-1 fragments beyond the
	// first hole outstanding, so eviction only ever fires against
	// non-compliant (or wildly delayed) traffic.
	maxOOOFrags = maxInflightFrags
	// fastRetransmitDupAcks is K: after this many consecutive standalone
	// cumulative acks with no progress, the sender retransmits the holes
	// without waiting for the recovery timer.
	fastRetransmitDupAcks = 3
)

// seqLE reports a <= b in uint8 serial-number order, valid while the live
// span stays under half the sequence space.
func seqLE(a, b uint8) bool { return b-a < 128 }

// seqLT is strict serial-number order.
func seqLT(a, b uint8) bool { return a != b && seqLE(a, b) }

// wfrag is one unacknowledged FRAG transmission.
type wfrag struct {
	seq uint8
	msg *msg
	idx int
	// sacked marks a fragment the receiver reported holding out of order.
	// A sacked fragment is skipped by hole retransmission but is NOT
	// released — only the cumulative ack frees it, so a receiver-side
	// eviction can never strand the transfer (anti-renege: the marks are
	// cleared after two consecutive timer fires without progress).
	sacked bool
	// wireAt is when this fragment's latest copy finishes leaving the
	// wire. While wireAt is in the future the copy is still in our own
	// egress queue, so an unanswered fragment is not evidence of loss —
	// recovery skips it rather than stacking duplicates behind it.
	wireAt sim.Time
}

// wsend is the windowed send half of a peer record.
type wsend struct {
	inflight []*msg  // unacknowledged messages, message-sequence order
	frames   []wfrag // unacknowledged fragments, frame-sequence order
	nextMsg  uint8
	nextSeq  uint8
	stalled  bool // window-full edge already counted
	// readyAt serializes fragment CPU charges: the kernel processor
	// copies one buffer at a time, so a burst of fragments reaches the
	// bus in sequence order even though their per-byte copy charges
	// differ. Without this, a smaller final fragment would overtake its
	// predecessor and the in-order receiver would see a permanent gap.
	readyAt sim.Time
	// lineFreeAt paces fragment submissions to the line rate: the node
	// has one transmitter, so fragment k+1 is handed to the medium only
	// once fragment k has left the wire. Without pacing, a window's worth
	// of fragments floods the bus FIFO at CPU speed and the peer's
	// acknowledgements queue behind the whole burst, collapsing the
	// pipeline into a batch round trip.
	lineFreeAt sim.Time
	armed      bool // the recovery timer is running
	// probeWireAt is when the last §5.2.3 completion probe finishes
	// leaving the wire; a new probe is pointless (and pure egress spam)
	// while the previous one is still queued behind the stream.
	probeWireAt sim.Time

	// AIMD congestion state (see the package doc).
	// cwnd is the adaptive message window, always in [1, Endpoint.window()];
	// cleanAcks counts message completions since the last loss signal
	// toward the next additive increase.
	cwnd      int
	cleanAcks int
	// Duplicate-cumulative-ack tracking for fast retransmit: dupAcks
	// counts consecutive standalone FRAGACKs repeating cumulative point
	// dupCum with no progress. Piggybacked acks never count — a busy
	// reverse direction repeats its cum on every FRAG without implying
	// loss — and any progress resets the run.
	dupCum  uint8
	dupAcks int
}

// sendable returns the message whose fragment should transmit next: the one
// mid-pass, else the earliest admitted message not yet started (a fresh
// admission or a busy retry). Never interleaving fragments of two messages
// keeps each message's fragments contiguous in the frame-sequence stream,
// which the receiver's single reassembly buffer relies on.
func (ws *wsend) sendable() *msg {
	var restart *msg
	for _, m := range ws.inflight {
		if m.parked || m.next >= m.frags {
			continue
		}
		if m.next > 0 {
			return m
		}
		if restart == nil {
			restart = m
		}
	}
	return restart
}

// outstanding reports whether anything toward the peer still awaits
// acknowledgement (parked messages wait on their own retry timer).
func (ws *wsend) outstanding() bool {
	if len(ws.frames) > 0 {
		return true
	}
	for _, m := range ws.inflight {
		if !m.parked {
			return true
		}
	}
	return false
}

// framed reports whether any of m's fragments is unacknowledged.
func (ws *wsend) framed(m *msg) bool {
	for _, fr := range ws.frames {
		if fr.msg == m {
			return true
		}
	}
	return false
}

// take removes and returns the inflight message with msgSeq, or nil.
func (ws *wsend) take(msgSeq uint8) *msg {
	for i, m := range ws.inflight {
		if m.msgSeq == msgSeq {
			n := copy(ws.inflight[i:], ws.inflight[i+1:])
			ws.inflight[i+n] = nil
			ws.inflight = ws.inflight[:i+n]
			m.done = true
			m.parked = false
			m.parkGen++
			return m
		}
	}
	return nil
}

// winMsg is a fully reassembled message awaiting in-order delivery.
type winMsg struct {
	payload []byte
	urgent  bool
}

// oooFrag is one fragment received ahead of the cumulative point and held
// for reassembly once the hole fills. The payload is a view of the wire
// buffer the fragment arrived in, which no one writes once it is sent.
type oooFrag struct {
	msgSeq  uint8
	idx     uint8
	end     bool
	urgent  bool
	payload []byte
}

// wrecv is the windowed receive half of a peer record.
type wrecv struct {
	valid bool
	cum   uint8 // highest in-order frame sequence received
	next  uint8 // next message sequence to deliver

	// Reassembly of the (single) message currently arriving in the
	// contiguous frame stream. asm holds views of its fragments' wire
	// buffers until the final fragment arrives (assemble).
	asmOpen bool
	asmSeq  uint8
	asmIdx  int
	asm     [][]byte

	buffered map[uint8]winMsg // reassembled, not yet delivered
	skipped  map[uint8]bool   // delivered ahead of order during busyWait

	// Out-of-order fragments keyed by frame sequence. Bounded by
	// maxOOOFrags with deterministic farthest-first eviction; drained into
	// the contiguous assembly stream as the cumulative point advances.
	ooo map[uint8]oooFrag

	delivering bool // one upper-layer verdict outstanding at a time
	busyWait   bool // head message busy-refused; urgent may overtake

	// Cached replies for duplicate replay (§5.2.3), evicted FIFO.
	cache    map[uint8]cachedReply
	cacheAge []uint8

	ackPending bool // standalone FRAGACK scheduled
	ackGen     int
}

// window is the clamped message-window depth — the operator's ceiling.
func (e *Endpoint) window() int {
	w := e.cfg.Window
	if w > MaxWindowMessages {
		w = MaxWindowMessages
	}
	return w
}

// fragSize is the fragment payload cap for a message of n bytes.
func fragSize(n int) int {
	if n > DefaultFragSize*maxFragsPerMsg {
		return (n + maxFragsPerMsg - 1) / maxFragsPerMsg
	}
	return DefaultFragSize
}

// wEnqueue queues m toward dst, opening the record and its send half on
// first use.
func (e *Endpoint) wEnqueue(dst frame.MID, p *peer, m *msg) {
	if p.ws == nil {
		// cwnd opens at the operator ceiling: on the known-capacity LAN the
		// AIMD search runs downward from loss evidence, so a clean link
		// runs at the full window from the first message.
		//lint:allow noalloc (steady-state: one send half per peer, replaced only after a peer-dead verdict)
		p.ws = &wsend{cwnd: e.window()}
		if q := p.quietUntil; q > e.k.Now() {
			// Reconnect after a peer-dead verdict: hold the first frame
			// until the peer's receive record has provably lapsed. Seeding
			// the CPU/line serializers is enough — every transmission is
			// scheduled behind them.
			p.ws.readyAt, p.ws.lineFreeAt = q, q
		}
		e.open(dst, p)
	}
	p.enqueue(m)
	e.wPump(dst, p)
}

// wrecvFor returns src's record with its receive half, applying the lazy
// Delta-t expiry (see conn).
func (e *Endpoint) wrecvFor(src frame.MID) *peer {
	p := e.conn(src)
	if p.wr == nil {
		//lint:allow noalloc (steady-state: one receive half per peer, replaced only after a peer-dead verdict)
		p.wr = &wrecv{}
	}
	return p
}

// wPump admits queued messages while the window is open and transmits
// fragments while the fragment budget allows, then makes sure the recovery
// timer covers whatever is outstanding.
func (e *Endpoint) wPump(dst frame.MID, p *peer) {
	ws := p.ws
	for {
		m := ws.sendable()
		if m == nil {
			if len(p.queue) == 0 {
				break
			}
			if len(ws.inflight) >= ws.cwnd {
				if !ws.stalled {
					ws.stalled = true
					e.emit(EvWindowFill, dst, ws.nextMsg, len(ws.inflight))
				}
				break
			}
			m = p.dequeue()
			ws.stalled = false
			m.msgSeq = ws.nextMsg
			ws.nextMsg++
			m.fragSz = fragSize(len(m.payload))
			m.frags = (len(m.payload) + m.fragSz - 1) / m.fragSz
			if m.frags == 0 {
				m.frags = 1 // empty payload still takes one fragment
			}
			if len(ws.inflight) == 0 && len(ws.frames) == 0 {
				// The no-response clock starts when the first frame can
				// actually leave: a reconnect quiet period (ws.readyAt in
				// the future) must not count against the peer.
				e.startClock(p, max(e.k.Now(), ws.readyAt))
			}
			//lint:allow noalloc (amortized: the in-flight list grows to the window ceiling, then is reused)
			ws.inflight = append(ws.inflight, m)
			continue
		}
		if len(ws.frames) >= maxInflightFrags {
			break
		}
		idx := m.next
		m.next++
		seq := ws.nextSeq
		ws.nextSeq++
		if idx == m.frags-1 {
			m.lastSeq = seq
		}
		//lint:allow noalloc (amortized: the fragment list grows to maxInflightFrags at most, then is reused)
		ws.frames = append(ws.frames, wfrag{seq: seq, msg: m, idx: idx})
		ws.frames[len(ws.frames)-1].wireAt = e.wTransmitFrag(dst, p, m, idx, seq)
	}
	e.wArm(dst, p)
}

// wTransmitFrag charges the send cost and schedules fragment idx of m onto
// the bus, serialized behind earlier fragment charges (ws.readyAt). The
// transmission is skipped if the message completes or parks before the
// processing delay elapses. Returns when this copy finishes leaving the
// wire, for the caller to record as the fragment's wireAt.
func (e *Endpoint) wTransmitFrag(dst frame.MID, p *peer, m *msg, idx int, seq uint8) sim.Time {
	ws := p.ws
	start := idx * m.fragSz
	end := start + m.fragSz
	if end > len(m.payload) {
		end = len(m.payload)
	}
	var chunk []byte
	if start < end {
		chunk = m.payload[start:end]
	}
	d := e.chargeSend(true, len(chunk))
	now := e.k.Now()
	cpuDone := now + d
	if ws.readyAt > now {
		cpuDone = ws.readyAt + d
	}
	ws.readyAt = cpuDone
	submit := cpuDone
	if submit < ws.lineFreeAt {
		submit = ws.lineFreeAt
	}
	shape := frame.TransportFrame{Kind: frame.TransportFrag, Payload: chunk}
	wire := shape.WireSize()
	ws.lineFreeAt = submit + e.wireTime(wire)
	t := e.newTimer(timerFrag, dst, p)
	t.m, t.gen, t.idx, t.seq, t.data = m, m.gen, idx, seq, chunk
	e.k.After(submit-now, t.fire)
	return ws.lineFreeAt
}

// wFireFrag puts a scheduled FRAG on the wire, unless its message
// completed, parked or went back to the freelist meanwhile.
func (e *Endpoint) wFireFrag(t *timer) {
	m := t.m
	if m.gen != t.gen || m.done || m.parked {
		return
	}
	f := frame.TransportFrame{
		Kind:      frame.TransportFrag,
		Src:       e.mid,
		Dst:       t.peer,
		Seq:       t.seq,
		ConnOpen:  true,
		MsgSeq:    m.msgSeq,
		FragIndex: uint8(t.idx),
		FragEnd:   t.idx == m.frags-1,
		Urgent:    m.urgent,
		Payload:   t.data,
	}
	e.attachCumAck(&f, t.p)
	e.transmit(&f)
}

// wArm starts the per-destination recovery timer if it is not already
// running and something is outstanding. The wait scales with the bytes in
// flight so a burst is not retried while still on the wire, capped well
// inside the death-detection window.
func (e *Endpoint) wArm(dst frame.MID, p *peer) {
	ws := p.ws
	if ws.armed || !ws.outstanding() {
		return
	}
	ws.armed = true
	p.timerGen++
	gen := p.timerGen
	bytes := 0
	for _, fr := range ws.frames {
		n := len(fr.msg.payload) - fr.idx*fr.msg.fragSz
		if n > fr.msg.fragSz {
			n = fr.msg.fragSz
		}
		if n > 0 {
			bytes += n
		}
	}
	guard := e.wireTime(bytes) * 3
	if max := e.cfg.DeadAfter() / 2; guard > max {
		guard = max
	}
	wait := p.interval + guard
	if len(ws.frames) > 0 {
		if drain := ws.frames[0].wireAt; drain > e.k.Now() {
			// The oldest outstanding fragment is still in our egress
			// queue; firing earlier would find nothing actionable (see
			// wRetransmit's in-egress check). Wait for the line plus one
			// retry interval for the answer to start back.
			if w := time.Duration(drain-e.k.Now()) + p.interval; w > wait {
				wait = w
			}
		}
	}
	if e.quiet(p) {
		// Frames held by the reconnect quiet period have not reached the
		// wire; retrying before they could possibly be answered only
		// duplicates the backlog into the enforced silence.
		wait += p.quietUntil - e.k.Now()
	}
	wait += e.jitter()
	t := e.newTimer(timerRecover, dst, p)
	t.ws, t.gen = ws, gen
	e.k.After(wait, t.fire)
}

// wRecover is the recovery timer armed by wArm: it runs a recovery round,
// or reports the peer dead past its deadline.
func (e *Endpoint) wRecover(t *timer) {
	dst, p, ws := t.peer, t.p, t.ws
	if p.ws != ws || p.timerGen != t.gen {
		return
	}
	ws.armed = false
	if !ws.outstanding() {
		return
	}
	if e.k.Now() >= p.deadline {
		busy := max(ws.readyAt, ws.lineFreeAt)
		if busy > e.k.Now() {
			// The silence is our own doing: a deep window's recovery
			// round serializes through the CPU and the single transmitter
			// for longer than DeadAfter, so frames the peer could answer
			// (including §5.2.3 probes) have not all left yet. The
			// no-response verdict only counts from the moment the last of
			// them is on the wire — and piling another round onto the
			// backlog would just deepen it. This cannot defer death
			// forever: each recovery round adds at most
			// wireTime(outstanding) to the backlog while the timer waits
			// interval + 3*wireTime(outstanding), so a truly dead peer's
			// backlog drains and the clock fires.
			p.deadline = busy + e.cfg.DeadAfter()
			e.wArm(dst, p)
			return
		}
		e.peerDead(dst, p)
		return
	}
	e.wRetransmit(dst, p)
}

// wCancelTimer stops the recovery timer and resets the backoff, called on
// acknowledgement progress (the caller re-arms it for the new oldest
// outstanding frame).
func (e *Endpoint) wCancelTimer(p *peer) {
	p.timerGen++
	p.ws.armed = false
	p.interval = e.cfg.RetransInterval
	p.attempts = 0
}

// wRetransmit is one recovery round: it halves the AIMD window (the timer
// fire is the loss evidence), then re-sends only the holes — fragments the
// receiver has not reported via SACK. When every fragment is acknowledged
// but a message completion is missing, it probes with the oldest incomplete
// message's final fragment — the duplicate triggers the receiver's
// cached-reply replay (§5.2.3).
func (e *Endpoint) wRetransmit(dst frame.MID, p *peer) {
	ws := p.ws
	if len(ws.frames) > 0 && ws.frames[0].wireAt > e.k.Now() {
		// The oldest outstanding fragment's latest copy is still in our
		// egress queue (a deep window serializes for longer than the
		// timer's capped guard). Its silence proves nothing, and a
		// recovery round would only stack duplicates behind it — wait
		// for the line instead. Not counted as an attempt: no evidence,
		// no backoff, no AIMD decrease.
		e.wArm(dst, p)
		return
	}
	e.totals.RetransTimer += e.cfg.Costs.RetransTimer
	p.attempts++
	e.backoff(p)
	e.wShrinkWindow(dst, ws)
	if len(ws.frames) > 0 {
		if p.attempts >= 2 {
			// Anti-renege: two timer fires with no cumulative progress
			// means the SACK picture may be stale (or the receiver
			// evicted); distrust it and re-send everything unacked.
			for i := range ws.frames {
				ws.frames[i].sacked = false
			}
		}
		sent := false
		for i := range ws.frames {
			if ws.frames[i].sacked || ws.frames[i].wireAt > e.k.Now() {
				continue
			}
			e.wResendFrag(dst, p, i, p.attempts+1)
			sent = true
		}
		if !sent {
			// Everything outstanding is sacked yet cum never advanced:
			// the receiver's acks are being lost. Re-send the oldest
			// fragment; its duplicate provokes a fresh (high) cum ack.
			e.wResendFrag(dst, p, 0, p.attempts+1)
		}
	}
	e.wProbeStarved(dst, p)
	e.wArm(dst, p)
}

// wProbeStarved re-sends the final fragment of the oldest unparked message
// that is fully transmitted and wholly frame-acknowledged yet still missing
// its completion ack — the duplicate provokes the receiver's cached-reply
// replay (§5.2.3) or an ErrReplyLost verdict. This must run even while
// younger messages have frames outstanding: the frame loops above only
// touch ws.frames, so on a busy pipeline a message whose completion ack
// was lost would otherwise never be probed — it starves behind the stream
// until the sender declares a live, acking peer dead. One probe per
// recovery round drains multiple stuck messages one at a time.
func (e *Endpoint) wProbeStarved(dst frame.MID, p *peer) {
	ws := p.ws
	if ws.probeWireAt > e.k.Now() {
		return // the previous probe has not even left the wire yet
	}
	for _, m := range ws.inflight {
		if m.parked || m.next < m.frags || ws.framed(m) {
			continue
		}
		e.emit(EvFragRetransmit, dst, m.lastSeq, p.attempts+1)
		ws.probeWireAt = e.wTransmitFrag(dst, p, m, m.frags-1, m.lastSeq)
		return
	}
}

// wResendFrag re-sends the hole at ws.frames[i], counted both as a fragment
// retransmission (the recovery metric it shares with completion probes) and
// as a selective retransmission (hole re-sends only).
func (e *Endpoint) wResendFrag(dst frame.MID, p *peer, i int, round int) {
	fr := p.ws.frames[i]
	e.emit(EvSelectiveRetransmit, dst, fr.seq, round)
	p.ws.frames[i].wireAt = e.wTransmitFrag(dst, p, fr.msg, fr.idx, fr.seq)
}

// wShrinkWindow applies the AIMD multiplicative decrease (floor 1) and
// resets the additive-increase credit.
func (e *Endpoint) wShrinkWindow(dst frame.MID, ws *wsend) {
	ws.cleanAcks = 0
	if ws.cwnd <= 1 {
		return
	}
	ws.cwnd /= 2
	e.emit(EvWindowDecrease, dst, 0, ws.cwnd)
}

// wDropFrames removes m's fragments from the unacknowledged-frame list.
func (e *Endpoint) wDropFrames(ws *wsend, m *msg) {
	n := 0
	for _, fr := range ws.frames {
		if fr.msg != m {
			ws.frames[n] = fr
			n++
		}
	}
	clear(ws.frames[n:])
	ws.frames = ws.frames[:n]
}

// wProcess dispatches one received frame in windowed mode. While fragments
// are unacknowledged, any frame heard proves the peer alive and restarts the
// no-response clock (§5.2.2). In the pure-probe state (every fragment
// cumulatively acknowledged, only message completions missing) a bare frame
// is NOT proof of progress: a receiver whose record expired mid-connection
// answers probes with cumulative acks forever but can never complete the
// message, so only a completion, a NACK, or a busy signal — handled in their
// dispatch paths below — restarts the clock. This mirrors stop-and-wait,
// where a duplicate of an unanswerable frame earns silence and the sender's
// death clock runs out.
func (e *Endpoint) wProcess(f *frame.TransportFrame) {
	p := e.peer(f.Src)
	if ws := p.ws; ws != nil && len(ws.frames) > 0 && !e.quiet(p) {
		// Monotone refresh only: a reconnect sets the deadline past the
		// quiet period, and a straggler frame must never pull it back
		// below the first moment the new connection can transmit.
		p.deadline = max(p.deadline, e.k.Now()+e.cfg.DeadAfter())
	}
	switch f.Kind {
	case frame.TransportFrag:
		e.wHandleFrag(f.Src, p, f)
	case frame.TransportFragAck, frame.TransportAck, frame.TransportNack:
		// Acknowledgement traffic arriving inside the reconnect quiet
		// period is addressed to the DEAD connection: nothing of the new
		// sequence space has reached the wire, so there is nothing these
		// frames could legitimately acknowledge. Applying them would
		// alias the old generation's cumulative point onto the new
		// space — silently releasing fragments that were never sent.
		if p.ws == nil || e.quiet(p) {
			return
		}
		switch f.Kind {
		case frame.TransportFragAck:
			e.wHandleFragAck(f.Src, p, f)
		case frame.TransportAck:
			e.wHandleMsgAck(f.Src, p, f)
		case frame.TransportNack:
			e.wHandleNack(f.Src, p, f)
		}
	}
	// TransportData toward a windowed endpoint would mean a mixed-mode
	// network, which is unsupported; such frames fall through and drop.
}

// wAckAdvance releases every fragment covered by the cumulative point and
// reports whether anything was released. It has no timing side effects: a
// no-progress ack must leave the send state — including the wsend.readyAt
// virtual-time serializer — completely untouched, or every duplicate ack
// would charge phantom CPU time (the spurious-retransmit cliff the
// regression test in window_test.go pins).
func (e *Endpoint) wAckAdvance(ws *wsend, cum uint8) bool {
	n := 0
	for n < len(ws.frames) && seqLE(ws.frames[n].seq, cum) {
		n++
	}
	if n == 0 {
		return false
	}
	// Shift the survivors down so the list keeps its storage.
	k := copy(ws.frames, ws.frames[n:])
	clear(ws.frames[k:])
	ws.frames = ws.frames[:k]
	return true
}

// wHandleCumAck applies a cumulative frame acknowledgement (standalone or
// piggybacked) and, on progress, lets admission and transmission resume.
// Reports whether the cumulative point advanced.
func (e *Endpoint) wHandleCumAck(src frame.MID, p *peer, cum uint8) bool {
	if p.ws == nil || e.quiet(p) {
		// The quiet guard covers piggybacked acks riding inbound FRAGs;
		// standalone acknowledgement frames are dropped in wProcess.
		return false
	}
	if !e.wAckAdvance(p.ws, cum) {
		return false
	}
	p.ws.dupAcks = 0
	e.wCancelTimer(p)
	e.wPump(src, p)
	return true
}

// wHandleFragAck processes a standalone FRAGACK: cumulative release, SACK
// marking, and duplicate-ack counting toward fast retransmit. Only
// standalone acks count as duplicates: they are the receiver's explicit
// "still stuck at cum" signal, whereas piggybacked acks repeat cum on every
// reverse fragment as a matter of course.
func (e *Endpoint) wHandleFragAck(src frame.MID, p *peer, f *frame.TransportFrame) {
	ws := p.ws
	if f.SackBits != 0 {
		for i := range ws.frames {
			d := ws.frames[i].seq - (f.Seq + 2)
			if d < sackSpan && f.SackBits&(1<<d) != 0 {
				ws.frames[i].sacked = true
			}
		}
	}
	if e.wHandleCumAck(src, p, f.Seq) {
		return
	}
	if len(ws.frames) == 0 {
		return
	}
	if ws.dupAcks > 0 && ws.dupCum == f.Seq {
		ws.dupAcks++
	} else {
		ws.dupCum = f.Seq
		ws.dupAcks = 1
	}
	if ws.dupAcks < fastRetransmitDupAcks {
		return
	}
	ws.dupAcks = 0
	// Fast retransmit: re-send the holes below the highest SACKed
	// fragment — those are provably lost, not merely late, because the
	// receiver holds their successors. Without SACK evidence (duplicate
	// data can also produce dup acks) fall back to the oldest fragment.
	hi := -1
	for i, fr := range ws.frames {
		if fr.sacked {
			hi = i
		}
	}
	resent := false
	if hi >= 0 {
		for i := range ws.frames[:hi] {
			if !ws.frames[i].sacked && ws.frames[i].wireAt <= e.k.Now() {
				e.wResendFrag(src, p, i, 1)
				resent = true
			}
		}
	}
	if !resent && ws.frames[0].wireAt <= e.k.Now() {
		e.wResendFrag(src, p, 0, 1)
	}
	// No multiplicative decrease here: on this wire loss is random, not
	// congestive, so a dup-ack-repaired hole says nothing the window
	// size could fix — only the slower recovery-timer path (pipeline
	// actually stalled for a full drain + interval) shrinks cwnd.
	// The retransmission deserves a fresh round trip before the timer
	// can fire and trigger a full recovery round.
	e.wCancelTimer(p)
	e.wArm(src, p)
}

// wHandleMsgAck completes the acknowledged message: its fragments are
// released, its callback runs with any piggybacked reply, and the window
// opens for the next queued message.
func (e *Endpoint) wHandleMsgAck(src frame.MID, p *peer, f *frame.TransportFrame) {
	if f.AckPresent {
		e.wHandleCumAck(src, p, f.AckSeq)
	}
	ws := p.ws
	m := ws.take(f.Seq)
	if m == nil {
		return // duplicate ack of an already-completed message
	}
	// A completion is real progress — it restarts the no-response clock
	// even in the probe state, where wProcess deliberately does not.
	p.deadline = e.k.Now() + e.cfg.DeadAfter()
	e.wDropFrames(ws, m)
	e.emit(EvAckRx, src, f.Seq, 0)
	if ws.cwnd < e.window() {
		// Additive increase: one window's worth of clean completions —
		// roughly one loss-free round trip — earns one more message of
		// cwnd, never past the operator's ceiling.
		ws.cleanAcks++
		if ws.cleanAcks >= ws.cwnd {
			ws.cleanAcks = 0
			ws.cwnd++
			e.emit(EvWindowIncrease, src, 0, ws.cwnd)
		}
	}
	cb := m.cb
	e.freeMsg(m)
	if cb != nil {
		//lint:allow noalloc (indirect: send-completion callback; its targets are //lint:hotpath roots in soda/internal/core)
		cb(Result{Kind: ResultAcked, Reply: f.Payload})
	}
	e.wCancelTimer(p)
	e.wPump(src, p)
}

// wHandleNack processes a message-level negative acknowledgement. BUSY parks
// the message for the slower busy-retry interval (§5.2.3) — its fragments
// are dropped from the recovery set because the receiver provably assembled
// the whole message before refusing it, and the retry re-fragments from the
// start with fresh frame sequences. Error NACKs consume the message.
func (e *Endpoint) wHandleNack(src frame.MID, p *peer, f *frame.TransportFrame) {
	ws := p.ws
	msgSeq := f.Seq
	if f.Err == frame.NackBusy {
		var m *msg
		for _, c := range ws.inflight {
			if c.msgSeq == msgSeq {
				m = c
				break
			}
		}
		if m == nil || m.parked {
			return
		}
		p.deadline = e.k.Now() + e.cfg.DeadAfter()
		e.emit(EvBusyRetry, src, msgSeq, 0)
		m.parked = true
		m.parkGen++
		m.next = 0
		e.wDropFrames(ws, m)
		t := e.newTimer(timerUnpark, src, p)
		t.ws, t.m, t.gen, t.parkGen = ws, m, m.gen, m.parkGen
		e.k.After(e.cfg.BusyRetryInterval, t.fire)
		e.wCancelTimer(p)
		e.wArm(src, p) // still covers the other in-flight messages
		return
	}
	m := ws.take(msgSeq)
	if m == nil {
		return
	}
	// An error NACK is a definitive (if negative) answer: progress for the
	// no-response clock, letting the probe loop drain multiple stuck
	// messages one per round without tripping peer-dead.
	p.deadline = e.k.Now() + e.cfg.DeadAfter()
	e.wDropFrames(ws, m)
	cb := m.cb
	e.freeMsg(m)
	if cb != nil {
		//lint:allow noalloc (cold: error-NACK completion)
		cb(Result{Kind: ResultError, Err: f.Err})
	}
	e.wCancelTimer(p)
	e.wPump(src, p)
}

// wUnpark ends a busy-refused message's retry wait: the message
// re-fragments from the start, unless it completed, was parked again, or
// went back to the freelist meanwhile.
func (e *Endpoint) wUnpark(t *timer) {
	m := t.m
	if t.p.ws != t.ws || m.gen != t.gen || m.done || !m.parked || m.parkGen != t.parkGen {
		return
	}
	m.parked = false
	e.wPump(t.peer, t.p)
}

// wHandleFrag is the receive side: frame acceptance against the cumulative
// point, reassembly of the contiguous stream, duplicate replay from the
// reply cache, and buffering of completed messages for in-order delivery.
// Anything out of order is banked in the bounded per-peer ooo buffer and
// answered with a SACK so the sender learns the exact holes. Fragments stay
// views of their wire buffers until a message's final fragment arrives;
// then its data is copied once, into a buffer the receiver owns.
func (e *Endpoint) wHandleFrag(src frame.MID, p *peer, f *frame.TransportFrame) {
	if f.AckPresent {
		e.wHandleCumAck(src, p, f.AckSeq)
	}
	wr := e.wrecvFor(src).wr
	p.lastHeard = e.k.Now()
	if !wr.valid {
		// "Take any SN" adoption (§5.2.2) — but only a message-initial
		// fragment can start a fresh record; a mid-message fragment waits
		// for the sender's recovery pass to wrap back to the start.
		if f.FragIndex != 0 {
			return
		}
		wr.valid = true
		wr.cum = f.Seq
		wr.next = f.MsgSeq
	} else {
		switch {
		case f.Seq == wr.cum+1:
			wr.cum++
		case seqLE(f.Seq, wr.cum):
			// Duplicate: our acknowledgement was lost. A duplicate of a
			// message's final fragment may also be the sender probing for
			// a lost completion ack — replay it from the cache.
			if f.FragEnd {
				if cr, ok := wr.cache[f.MsgSeq]; ok {
					e.replay(src, p, f.MsgSeq, cr)
					return
				}
				if wr.skipped[f.MsgSeq] || seqLT(f.MsgSeq, wr.next) {
					// The message was consumed but its cached reply is
					// gone — the record expired and was re-adopted, or
					// the cache was evicted. No probe can ever be
					// answered; tell the sender so instead of dup-acking
					// it into a livelock.
					e.sendNack(src, p, f.MsgSeq, frame.ErrReplyLost)
					return
				}
			}
			// A duplicate means the sender is retransmitting blind;
			// answer immediately (with SACK state) rather than waiting
			// out the piggyback delay.
			e.wSendFragAck(src, p)
			return
		default:
			e.wBufferOOO(src, p, f)
			return
		}
	}
	e.wAcceptStream(src, p, f.MsgSeq, f.FragIndex, f.FragEnd, f.Urgent, f.Payload)
	// The hole just filled; drain every now-contiguous banked fragment
	// into the assembly stream, in sequence order.
	for {
		of, ok := wr.ooo[wr.cum+1]
		if !ok {
			break
		}
		delete(wr.ooo, wr.cum+1)
		wr.cum++
		e.wAcceptStream(src, p, of.msgSeq, of.idx, of.end, of.urgent, of.payload)
	}
}

// wAcceptStream advances the contiguous reassembly stream by one fragment
// that is now in order (fresh off the wire, or drained from the ooo buffer)
// and already accounted for in wr.cum.
func (e *Endpoint) wAcceptStream(src frame.MID, p *peer, msgSeq, fragIdx uint8, end, urgent bool, payload []byte) {
	wr := p.wr
	if wr.asmOpen && (wr.asmSeq != msgSeq || wr.asmIdx != int(fragIdx)) {
		// The sender restarted the message (busy retry) or moved on;
		// whatever was accumulating is void.
		wr.asmOpen = false
		wr.dropAssembly()
	}
	if !wr.asmOpen {
		if fragIdx != 0 {
			// Mid-message fragment with no open assembly: the stream
			// position is consumed but the content is unusable; the
			// sender recovers at the message level (probe → replay or
			// busy retry from fragment zero).
			e.wScheduleCumAck(src, p)
			return
		}
		wr.asmOpen = true
		wr.asmSeq = msgSeq
		wr.asmIdx = 0
	}
	wr.asmIdx++
	if !end {
		//lint:allow noalloc (amortized: the fragment list grows to the most fragments one message has had, then is reused)
		wr.asm = append(wr.asm, payload)
		e.wScheduleCumAck(src, p)
		return
	}
	wr.asmOpen = false
	full := wr.assemble(payload)
	if cr, ok := wr.cache[msgSeq]; ok {
		// A full re-delivery of an answered message (busy retry whose
		// first delivery was consumed, with the answer lost): replay.
		e.replay(src, p, msgSeq, cr)
		return
	}
	if wr.skipped[msgSeq] || seqLT(msgSeq, wr.next) {
		e.wScheduleCumAck(src, p)
		return // stale incarnation of an already-consumed message
	}
	if wr.buffered == nil {
		//lint:allow noalloc (steady-state: one map per receive half, reused across messages)
		wr.buffered = make(map[uint8]winMsg)
	}
	//lint:allow noalloc (amortized: entries are deleted at delivery, so the map stays at its peak size)
	wr.buffered[msgSeq] = winMsg{payload: full, urgent: urgent}
	e.wScheduleCumAck(src, p)
	e.wTryDeliver(src, p)
}

// assemble copies the open assembly's fragments, then last, into one
// exact-size buffer the receiver owns — the one copy a windowed message's
// data makes on its way in — and empties the assembly.
func (wr *wrecv) assemble(last []byte) []byte {
	n := len(last)
	for _, b := range wr.asm {
		n += len(b)
	}
	if n == 0 {
		return nil
	}
	//lint:allow noalloc (counted: one exact-size buffer per windowed message carrying data, handed to the upper layer)
	full := make([]byte, n)
	off := 0
	for _, b := range wr.asm {
		off += copy(full[off:], b)
	}
	copy(full[off:], last)
	wr.dropAssembly()
	return full
}

// dropAssembly empties the fragment list, keeping its storage.
func (wr *wrecv) dropAssembly() {
	clear(wr.asm)
	wr.asm = wr.asm[:0]
}

// wBufferOOO banks an out-of-order fragment for later draining and answers
// with an immediate SACK-bearing duplicate ack — the sender's
// fast-retransmit signal. Beyond-horizon fragments (impossible from a
// compliant sender) are dropped with a plain delayed ack. The buffer is
// bounded by maxOOOFrags; when full, the fragment farthest ahead of the
// cumulative point is the one discarded (deterministic, and the safest
// choice: far fragments are the last the drain could ever use, and the
// sender's un-released frames re-send them if the SACK never covers them).
func (e *Endpoint) wBufferOOO(src frame.MID, p *peer, f *frame.TransportFrame) {
	wr := p.wr
	dist := f.Seq - wr.cum
	if dist < 2 || dist >= 2+sackSpan {
		e.wScheduleCumAck(src, p)
		return
	}
	if _, ok := wr.ooo[f.Seq]; !ok {
		drop := false
		if len(wr.ooo) >= maxOOOFrags {
			worstSeq, worstDist := f.Seq, dist
			//lint:allow noalloc (cold: eviction never fires against a compliant sender)
			for _, seq := range sortediter.Keys(wr.ooo) {
				if d := seq - wr.cum; d > worstDist {
					worstSeq, worstDist = seq, d
				}
			}
			if worstSeq == f.Seq {
				drop = true
			} else {
				delete(wr.ooo, worstSeq)
			}
		}
		if !drop {
			if wr.ooo == nil {
				//lint:allow noalloc (steady-state: one map per receive half, reused across losses)
				wr.ooo = make(map[uint8]oooFrag)
			}
			//lint:allow noalloc (amortized: entries are deleted as the hole fills, and the map is bounded by maxOOOFrags)
			wr.ooo[f.Seq] = oooFrag{
				msgSeq:  f.MsgSeq,
				idx:     f.FragIndex,
				end:     f.FragEnd,
				urgent:  f.Urgent,
				payload: f.Payload,
			}
		}
	}
	e.wSendFragAck(src, p)
}

// sackBits builds the SACK bitmap over the ooo buffer: bit i set means
// frame sequence cum+2+i is banked (cum+1 is the hole by definition).
func (wr *wrecv) sackBits() uint64 {
	if len(wr.ooo) == 0 {
		return 0
	}
	var bits uint64
	for i := uint8(0); i < sackSpan; i++ {
		if _, ok := wr.ooo[wr.cum+2+i]; ok {
			bits |= 1 << i
		}
	}
	return bits
}

// sackBlockCount counts the contiguous runs of set bits — the "SACK blocks"
// the stats layer reports.
func sackBlockCount(bits uint64) int {
	n := 0
	prev := false
	for i := 0; i < sackSpan; i++ {
		cur := bits&(1<<i) != 0
		if cur && !prev {
			n++
		}
		prev = cur
	}
	return n
}

// wTryDeliver hands the next deliverable buffered message to the upper
// layer. Delivery is strictly in message-sequence order, with one exception:
// while the head message is busy-refused (busyWait), the serially-lowest
// URGENT buffered message may overtake — a kernel reply must never be
// blocked behind a busy-parked request (§5.2.2's no-deadlock rule). One
// delivery is outstanding at a time; the verdict (wConsume) triggers the
// next. The upper-layer hook runs on a fresh event so a verdict arriving
// via ResolveHold cannot reenter OnData from client context.
func (e *Endpoint) wTryDeliver(src frame.MID, p *peer) {
	wr := p.wr
	if wr.delivering {
		return
	}
	for wr.skipped[wr.next] {
		delete(wr.skipped, wr.next)
		wr.next++
		wr.busyWait = false
	}
	seq := wr.next
	m, ok := wr.buffered[seq]
	if !ok && wr.busyWait {
		bestDist := -1
		//lint:allow noalloc (cold: an urgent message overtaking a busy-refused one)
		for _, k := range sortediter.Keys(wr.buffered) {
			if !wr.buffered[k].urgent {
				continue
			}
			d := int(k - wr.next) // serial distance past the head
			if bestDist < 0 || d < bestDist {
				bestDist = d
				seq = k
			}
		}
		if bestDist >= 0 {
			m, ok = wr.buffered[seq], true
		}
	}
	if !ok {
		return
	}
	delete(wr.buffered, seq)
	wr.delivering = true
	t := e.newTimer(timerDeliver, src, p)
	t.seq, t.data = seq, m.payload
	e.k.After(0, t.fire)
}

// wHandOver gives a reassembled message to the upper layer and applies its
// verdict.
func (e *Endpoint) wHandOver(t *timer) {
	//lint:allow noalloc (indirect: kernel OnData hook, itself a //lint:hotpath root in soda/internal/core)
	dec := e.hooks.OnData(t.peer, t.data)
	e.wApplyVerdict(t.peer, t.seq, dec)
}

// wApplyVerdict is the windowed counterpart of applyVerdict: it disposes of
// a delivered message per the upper layer's decision.
func (e *Endpoint) wApplyVerdict(src frame.MID, msgSeq uint8, dec Decision) {
	p := e.wrecvFor(src)
	switch dec.Verdict {
	case VerdictAck:
		e.wConsume(src, p, msgSeq, cachedReply{kind: replyAck, payload: dec.Reply})
		e.sendAck(src, p, msgSeq, dec.Reply)
	case VerdictError:
		e.wConsume(src, p, msgSeq, cachedReply{kind: replyNack, err: dec.Err})
		e.sendNack(src, p, msgSeq, dec.Err)
	case VerdictAckDeferred:
		// No piggyback rides a windowed completion ack, so the deferral
		// degrades to a plain ack after one ack-delay (A).
		e.wConsume(src, p, msgSeq, cachedReply{kind: replyAck})
		t := e.newTimer(timerLateAck, src, p)
		t.seq = msgSeq
		e.k.After(e.cfg.A, t.fire)
	case VerdictBusy:
		// Not consumed: the sender re-fragments after its busy-retry
		// interval; meanwhile urgent buffered messages may overtake.
		p.wr.delivering = false
		p.wr.busyWait = true
		e.sendNack(src, p, msgSeq, frame.NackBusy)
		e.wTryDeliver(src, p)
	case VerdictHold:
		e.hold(src, msgSeq, dec)
	default:
		panic("deltat: invalid verdict in windowed mode")
	}
}

// wConsume records a consuming verdict: delivery order advances, the reply
// is cached for duplicate replay, and the next buffered message (if any)
// is handed up.
func (e *Endpoint) wConsume(src frame.MID, p *peer, msgSeq uint8, cr cachedReply) {
	wr := p.wr
	wr.delivering = false
	if msgSeq == wr.next {
		wr.next++
		wr.busyWait = false
	} else {
		// An urgent message consumed ahead of order during busyWait; the
		// head pointer skips it when it finally advances.
		if wr.skipped == nil {
			//lint:allow noalloc (cold: an urgent message overtaking a busy-refused one)
			wr.skipped = make(map[uint8]bool)
		}
		//lint:allow noalloc (cold: an urgent message overtaking a busy-refused one)
		wr.skipped[msgSeq] = true
	}
	if wr.cache == nil {
		//lint:allow noalloc (steady-state: one map per receive half, reused across messages)
		wr.cache = make(map[uint8]cachedReply)
	}
	if _, ok := wr.cache[msgSeq]; !ok {
		//lint:allow noalloc (amortized: the age list is bounded by replyCacheCap+1 and keeps its storage)
		wr.cacheAge = append(wr.cacheAge, msgSeq)
		if len(wr.cacheAge) > replyCacheCap {
			delete(wr.cache, wr.cacheAge[0])
			// Shift down so the age list keeps its storage.
			wr.cacheAge = wr.cacheAge[:copy(wr.cacheAge, wr.cacheAge[1:])]
		}
	}
	//lint:allow noalloc (amortized: the cache is bounded by replyCacheCap, evicting FIFO)
	wr.cache[msgSeq] = cr
	e.wTryDeliver(src, p)
}

// wScheduleCumAck arranges a standalone cumulative fragment acknowledgement
// after a short wait — long enough for an imminent message-completion ack or
// reverse fragment to carry the cumulative ack for free (§5.2.3's piggyback
// preference), but well inside the sender's retransmission guard.
func (e *Endpoint) wScheduleCumAck(src frame.MID, p *peer) {
	wr := p.wr
	if wr.ackPending {
		return
	}
	wr.ackPending = true
	wr.ackGen++
	delay := e.cfg.A + 2*e.wireTime(DefaultFragSize)
	t := e.newTimer(timerCumAckWait, src, p)
	t.wr, t.gen = wr, wr.ackGen
	e.k.After(delay, t.fire)
}

// wCumAckWaited ends the piggyback wait of wScheduleCumAck: if nothing
// carried the cumulative ack meanwhile, the standalone one is charged and
// scheduled.
func (e *Endpoint) wCumAckWaited(t *timer) {
	wr := t.wr
	if t.p.wr != wr || wr.ackGen != t.gen || !wr.ackPending {
		return
	}
	wr.ackPending = false
	d := e.chargeSend(false, 0)
	a := e.newTimer(timerCumAck, t.peer, t.p)
	a.wr = wr
	e.k.After(d, a.fire)
}

// wSendFragAck transmits a standalone FRAGACK immediately (after the send
// charge), superseding any delayed ack pending. The receiver uses it for
// every duplicate and out-of-order arrival: the prompt, SACK-bearing
// answer is what drives the sender's hole picture and its duplicate-ack
// fast-retransmit counter.
func (e *Endpoint) wSendFragAck(src frame.MID, p *peer) {
	wr := p.wr
	wr.ackPending = false
	wr.ackGen++
	d := e.chargeSend(false, 0)
	t := e.newTimer(timerFragAck, src, p)
	t.wr = wr
	e.k.After(d, t.fire)
}

// wTransmitFragAck builds and transmits the standalone FRAGACK from the
// receiver's current state: cumulative point plus the SACK bitmap over the
// ooo buffer (a zero bitmap encodes as a plain cumulative ack with no
// extension bytes, which is all a loss-free wire ever carries).
func (e *Endpoint) wTransmitFragAck(src frame.MID, wr *wrecv) {
	bits := wr.sackBits()
	e.emit(EvCumAck, src, wr.cum, 0)
	if bits != 0 {
		blocks := sackBlockCount(bits)
		e.emit(EvSackTx, src, wr.cum, blocks)
	}
	f := frame.TransportFrame{
		Kind:     frame.TransportFragAck,
		Src:      e.mid,
		Dst:      src,
		Seq:      wr.cum,
		SackBits: bits,
		ConnOpen: true,
	}
	e.transmit(&f)
}
