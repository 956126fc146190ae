package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
)

// AcceptStatus is the result of the ACCEPT primitive (§3.3.2).
type AcceptStatus int

const (
	// AcceptSuccess: the data exchange completed.
	AcceptSuccess AcceptStatus = iota + 1
	// AcceptCancelled: the request was cancelled, already completed, or
	// never addressed to this client (§3.3.2(6), §3.3.3).
	AcceptCancelled
	// AcceptCrashed: the requester crashed (or crashed and recovered)
	// before the exchange completed (§3.6.1).
	AcceptCrashed
)

func (s AcceptStatus) String() string {
	switch s {
	case AcceptSuccess:
		return "SUCCESS"
	case AcceptCancelled:
		return "CANCELLED"
	case AcceptCrashed:
		return "CRASHED"
	default:
		return "ACCEPT(?)"
	}
}

// Errors surfaced by the REQUEST primitive.
var (
	// ErrTooManyRequests: MAXREQUESTS uncompleted requests remain; it is
	// the client's responsibility to count (§3.7.4).
	ErrTooManyRequests = fmt.Errorf("core: MAXREQUESTS uncompleted requests outstanding")
	// ErrLocalRequest: messages are only exchanged by distinct
	// processors; there is no provision for local messages (§3.3).
	ErrLocalRequest = fmt.Errorf("core: request addressed to the local machine")
)

// issueRequest implements REQUEST (§3.3.1): non-blocking, returns a TID.
//
//lint:hotpath
func (n *Node) issueRequest(dst frame.ServerSig, arg int32, put []byte, getSize int) (frame.TID, error) {
	if dst.MID == n.mid {
		return 0, ErrLocalRequest
	}
	if len(n.outstanding) >= n.cfg.MaxRequests {
		return 0, ErrTooManyRequests
	}
	tid := n.nextTID()
	//lint:allow noalloc (counted: one outstanding-request record per REQUEST)
	o := &outRequest{
		tid:     tid,
		dst:     dst,
		arg:     arg,
		getSize: getSize,
	}
	//lint:allow noalloc (amortized: entries are deleted on completion, so the map stays at its peak size)
	n.outstanding[tid] = o
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsIssue, Sig: frame.RequesterSig{MID: n.mid, TID: tid}, Dst: dst})
	}
	if dst.MID == frame.BroadcastMID {
		//lint:allow noalloc (cold: broadcast DISCOVER, not the request round trip)
		n.startDiscover(o)
		return tid, nil
	}
	o.req = frame.Request{
		TID:     tid,
		Pattern: dst.Pattern,
		Arg:     arg,
		PutSize: uint32(len(put)),
		GetSize: uint32(getSize),
		HasData: len(put) > 0,
		Data:    put,
	}
	// Encoding re-points o.req.Data into the encoding: the kernel's snapshot
	// of the put buffer is the REQUEST on its way out. Retransmissions never
	// carry the data again (§5.2.3); a server that needs it asks via
	// NeedData at ACCEPT time. The windowed transport retransmits individual
	// fragments verbatim instead, so the stripped encoding is never built
	// there.
	full, retrans := frame.EncodeRequest(&o.req, o.req.HasData && n.ep.Config().Window <= 1)
	r := n.newPending(pendingRequestSent)
	r.o = o
	n.ep.Send(dst.MID, full, retrans, r.sent)
	return tid, nil
}

// requestSendDone handles the transport outcome of a REQUEST message.
func (n *Node) requestSendDone(o *outRequest, res deltat.Result) {
	if _, live := n.outstanding[o.tid]; !live {
		return // completed or cancelled while in flight
	}
	switch res.Kind {
	case deltat.ResultAcked:
		if len(res.Reply) > 0 {
			if msg, err := frame.Decode(res.Reply); err == nil {
				if acc, ok := msg.(*frame.Accept); ok && acc.TID == o.tid {
					// ACCEPT+ACK piggyback: the PUT best case (§5.2.3) —
					// also the crossing-requests path, where the accept
					// may carry reply data and ask for ours.
					if acc.NeedData {
						//lint:allow noalloc (cold: stale-exchange data re-supply)
						n.ep.SendUrgent(o.dst.MID, frame.Encode(&frame.AcceptData{TID: o.tid, Data: o.req.Data}), nil, nil)
					}
					n.applyAccept(o, acc)
					return
				}
			}
		}
		o.delivered = true
		if n.cfg.Observer != nil {
			n.observe(ObsEvent{Kind: ObsDelivered, Sig: frame.RequesterSig{MID: n.mid, TID: o.tid}, Dst: o.dst})
		}
		if o.cancelWaiter != nil {
			o.cancelWaiter.Resume()
		}
		n.scheduleProbe(o)
	case deltat.ResultError:
		switch res.Err {
		case frame.ErrUnadvertised:
			n.completeRequest(o, StatusUnadvertised, 0, nil, 0, 0)
		default:
			n.completeRequest(o, StatusCrashed, 0, nil, 0, 0)
		}
	case deltat.ResultPeerDead:
		n.completeRequest(o, StatusCrashed, 0, nil, 0, 0)
	}
}

// applyAccept completes an outstanding request from an Accept message.
func (n *Node) applyAccept(o *outRequest, acc *frame.Accept) {
	putN := min(len(o.req.Data), int(acc.GetSize))
	getN := min(o.getSize, len(acc.Data))
	n.completeRequest(o, StatusSuccess, acc.Arg, acc.Data[:getN], putN, getN)
}

// completeRequest removes the request and delivers the completion interrupt
// to the client (§3.3.2). A nil client (kernel-issued request) discards it.
func (n *Node) completeRequest(o *outRequest, st Status, arg int32, data []byte, putN, getN int) {
	if _, live := n.outstanding[o.tid]; !live {
		return
	}
	delete(n.outstanding, o.tid)
	o.probeGen++
	o.discoverGen++
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsComplete, Sig: frame.RequesterSig{MID: n.mid, TID: o.tid}, Status: st})
	}
	if o.cancelWaiter != nil {
		o.cancelWaiter.Resume()
	}
	if n.client == nil {
		return
	}
	n.client.deliverCompletion(Event{
		Kind:   EventRequestCompletion,
		Asker:  frame.RequesterSig{MID: n.mid, TID: o.tid},
		Arg:    arg,
		Status: st,
		Data:   data,
		PutN:   putN,
		GetN:   getN,
	})
}

// scheduleProbe arms the request-monitoring probe (§3.6.2): after delivery,
// the requester's kernel periodically verifies the server still holds the
// request; ProbeFailLimit successive silences — or a reply disowning the
// request — report a crash.
func (n *Node) scheduleProbe(o *outRequest) {
	o.probeGen++
	r := n.newPending(pendingProbe)
	r.o, r.gen = o, o.probeGen
	n.k.After(n.cfg.ProbeInterval, r.fire)
}

// probe sends one request-monitoring probe for o, unless the request
// completed or was re-armed since the probe timer gen was scheduled.
func (n *Node) probe(o *outRequest, gen int) {
	if o.probeGen != gen {
		return
	}
	if _, live := n.outstanding[o.tid]; !live {
		return
	}
	epoch := n.epoch
	//lint:allow noalloc (cold: probes fire only when the server is slow to accept)
	n.ep.Send(o.dst.MID, frame.Encode(&frame.Probe{TID: o.tid}), nil, func(res deltat.Result) {
		if epoch != n.epoch || o.probeGen != gen {
			return
		}
		if _, live := n.outstanding[o.tid]; !live {
			return
		}
		alive := false
		if res.Kind == deltat.ResultAcked {
			if msg, err := frame.Decode(res.Reply); err == nil {
				if pr, ok := msg.(*frame.ProbeReply); ok && pr.TID == o.tid {
					alive = pr.Alive
				}
			}
			if !alive {
				// The server answered but disowned the request: it
				// crashed and rebooted. Not escapable by rebooting
				// fast (§3.6.2).
				n.completeRequest(o, StatusCrashed, 0, nil, 0, 0)
				return
			}
			o.probeFails = 0
			n.scheduleProbe(o)
			return
		}
		o.probeFails++
		if o.probeFails >= n.cfg.ProbeFailLimit {
			n.completeRequest(o, StatusCrashed, 0, nil, 0, 0)
			return
		}
		n.scheduleProbe(o)
	})
}

// startDiscover implements the kernel side of a broadcast request (§3.4.4):
// broadcast the query, collect staggered replies for the window, then
// complete the GET with as many MIDs as fit the buffer.
func (n *Node) startDiscover(o *outRequest) {
	o.discover = true
	n.ep.SendDatagram(frame.BroadcastMID, frame.Encode(&frame.Discover{TID: o.tid, Pattern: o.dst.Pattern}))
	epoch := n.epoch
	gen := o.discoverGen
	n.k.After(n.cfg.DiscoverWindow, func() {
		if epoch != n.epoch || o.discoverGen != gen {
			return
		}
		if _, live := n.outstanding[o.tid]; !live {
			return
		}
		limit := min(len(o.discovered), o.getSize/2)
		buf := make([]byte, 0, limit*2)
		for _, mid := range o.discovered[:limit] {
			buf = binary.BigEndian.AppendUint16(buf, uint16(mid))
		}
		n.completeRequest(o, StatusSuccess, 0, buf, 0, len(buf))
	})
}

// DecodeMIDList unpacks the data of a completed DISCOVER request.
func DecodeMIDList(data []byte) []frame.MID {
	out := make([]frame.MID, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		out = append(out, frame.MID(binary.BigEndian.Uint16(data[i:i+2])))
	}
	return out
}

// onDatagram handles unreliable traffic: DISCOVER queries and replies.
func (n *Node) onDatagram(src frame.MID, payload []byte) {
	msg, err := frame.Decode(payload)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case *frame.Discover:
		if !n.advertised(m.Pattern) {
			return
		}
		// Stagger replies by MID so they do not collide (§5.3).
		delay := time.Duration(n.mid) * n.cfg.DiscoverStagger
		epoch := n.epoch
		n.k.After(delay, func() {
			if epoch != n.epoch || !n.advertised(m.Pattern) {
				return
			}
			n.ep.SendDatagram(src, frame.Encode(&frame.DiscoverReply{TID: m.TID, Pattern: m.Pattern}))
		})
	case *frame.DiscoverReply:
		o, ok := n.outstanding[m.TID]
		if !ok || !o.discover {
			return
		}
		for _, seen := range o.discovered {
			if seen == src {
				return
			}
		}
		o.discovered = append(o.discovered, src)
	}
}

// onData is the transport delivery hook: every reliable kernel message
// lands here.
//
//lint:hotpath
func (n *Node) onData(src frame.MID, payload []byte) deltat.Decision {
	var msg frame.Message
	var err error
	if n.ep.DeliversOwned() {
		// The windowed transport hands each message over in a buffer of its
		// own, so the decoded data may keep it: that buffer is the one copy
		// the data makes on the way in.
		msg, err = frame.DecodeOwned(payload)
	} else {
		msg, err = frame.Decode(payload)
	}
	if err != nil {
		return deltat.Decision{Verdict: deltat.VerdictError, Err: frame.ErrStale}
	}
	switch m := msg.(type) {
	case *frame.Request:
		return n.onRequest(src, m)
	case *frame.Accept:
		return n.onAccept(src, m)
	case *frame.AcceptData:
		return n.onAcceptData(src, m)
	case *frame.Cancel:
		return n.onCancel(src, m)
	case *frame.Probe:
		return n.onProbe(src, m)
	default:
		return deltat.Decision{Verdict: deltat.VerdictError, Err: frame.ErrStale}
	}
}

// onHoldExpired is the transport's notice that a hold auto-resolved. Core
// manages all hold timers itself (HoldTimeout < 0), so this only fires for
// defensive configurations.
func (n *Node) onHoldExpired(frame.MID, deltat.Verdict) {}

// onRequest implements the server kernel's REQUEST screening (§3.4.1) and
// delivery (§3.3.2).
func (n *Node) onRequest(src frame.MID, m *frame.Request) deltat.Decision {
	if !m.Pattern.Valid() || !n.advertised(m.Pattern) {
		return deltat.Decision{Verdict: deltat.VerdictError, Err: frame.ErrUnadvertised}
	}
	if m.Pattern.Reserved() {
		//lint:allow noalloc (cold: reserved patterns serve LOAD/KILL, not the request round trip)
		return n.onReservedRequest(src, m)
	}
	c := n.client
	if c == nil {
		return deltat.Decision{Verdict: deltat.VerdictError, Err: frame.ErrUnadvertised}
	}
	sig := frame.RequesterSig{MID: src, TID: m.TID}
	if _, dup := n.delivered[sig]; dup {
		// Transport-level duplicates are filtered below us; a fresh
		// delivery of a known signature means state desynchronized.
		// Refuse without consuming.
		return deltat.Decision{Verdict: deltat.VerdictBusy}
	}
	if !c.handlerAvailable() {
		if n.cfg.Pipelined && n.heldIn == nil {
			// Pipelined kernel: park the request in the input buffer
			// for a short while instead of BUSY-NACKing (§5.2.3).
			//lint:allow noalloc (cold: pipelined input buffering engages only when the handler is busy)
			h := &heldInput{src: src, req: m}
			n.heldIn = h
			//lint:allow noalloc (cold: pipelined input buffering engages only when the handler is busy)
			n.armPipelineExpiry(h)
			return deltat.Decision{Verdict: deltat.VerdictHold, HoldTimeout: -1}
		}
		return deltat.Decision{Verdict: deltat.VerdictBusy}
	}
	n.deliverRequest(src, m)
	return deltat.Decision{Verdict: deltat.VerdictHold, HoldTimeout: -1}
}

// armPipelineExpiry bounds how long a parked request occupies the input
// buffer before the kernel gives up with a BUSY NACK.
func (n *Node) armPipelineExpiry(h *heldInput) {
	gen := h.gen
	epoch := n.epoch
	n.k.After(n.cfg.PipelineHold, func() {
		if epoch != n.epoch || n.heldIn != h || h.gen != gen {
			return
		}
		n.heldIn = nil
		n.ep.ResolveHold(h.src, deltat.Decision{Verdict: deltat.VerdictBusy})
	})
}

// releaseHeldInput is called when the handler becomes available: a parked
// request is delivered exactly as if it had just arrived.
func (n *Node) releaseHeldInput() {
	h := n.heldIn
	if h == nil || n.client == nil || !n.client.handlerAvailable() {
		return
	}
	n.heldIn = nil
	h.gen++
	n.deliverRequest(h.src, h.req)
}

// deliverRequest records the request, starts the accept window, and invokes
// the client handler with the tag (§3.3.1, §6.11).
func (n *Node) deliverRequest(src frame.MID, m *frame.Request) {
	sig := frame.RequesterSig{MID: src, TID: m.TID}
	//lint:allow noalloc (counted: one delivered-request record per REQUEST)
	in := &inRequest{
		sig:     sig,
		pattern: m.Pattern,
		arg:     m.Arg,
		putSize: int(m.PutSize),
		getSize: int(m.GetSize),
		hasData: m.HasData,
		data:    m.Data,
	}
	//lint:allow noalloc (amortized: entries are deleted at accept or cancel, so the map stays at its peak size)
	n.delivered[sig] = in
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsArrival, Sig: sig, Dst: frame.ServerSig{MID: n.mid, Pattern: m.Pattern}})
	}
	n.armAcceptWindow(in)
	n.client.deliverArrival(Event{
		Kind:    EventRequestArrival,
		Asker:   sig,
		Pattern: m.Pattern,
		Arg:     m.Arg,
		PutSize: in.putSize,
		GetSize: in.getSize,
	})
}

// armAcceptWindow sends the plain acknowledgement if no ACCEPT arrives
// within the piggyback window. The kernel is bufferless (§6.13): once the
// window closes, the put data that rode along with the REQUEST is dropped
// and must be re-fetched at ACCEPT time.
func (n *Node) armAcceptWindow(in *inRequest) {
	in.timeoutGen++
	r := n.newPending(pendingAcceptWindow)
	r.in, r.gen = in, in.timeoutGen
	n.k.After(n.cfg.AcceptWindow, r.fire)
}

// closeAcceptWindow releases the plain acknowledgement of in when its
// accept window gen closes with no ACCEPT under way.
func (n *Node) closeAcceptWindow(in *inRequest, gen int) {
	if in.timeoutGen != gen || in.acked || in.accepting {
		return
	}
	in.acked = true
	in.hasData = false
	in.data = nil
	n.ep.ResolveHold(in.sig.MID, deltat.Decision{Verdict: deltat.VerdictAck})
}

// onAccept implements the requester kernel's handling of an ACCEPT message
// arriving as its own DATA frame (the GET/EXCHANGE paths, §5.2.3).
func (n *Node) onAccept(src frame.MID, m *frame.Accept) deltat.Decision {
	o, ok := n.outstanding[m.TID]
	if !ok {
		if uint64(m.TID) <= n.tidFloor {
			// Predates our last crash/DIE: the server must learn we
			// crashed (§3.6.1).
			return deltat.Decision{Verdict: deltat.VerdictError, Err: frame.ErrStale}
		}
		// Completed, cancelled, or a guessed signature (§3.3.2(6)).
		return deltat.Decision{Verdict: deltat.VerdictError, Err: frame.ErrCancelled}
	}
	if src != o.dst.MID || o.discover {
		// Accepted by a different client than the request named.
		return deltat.Decision{Verdict: deltat.VerdictError, Err: frame.ErrCancelled}
	}
	if m.NeedData {
		// The server kernel dropped (or never received) our put data;
		// re-send it, acknowledging the ACCEPT on the same frame
		// (messages 5–6 of the stale-exchange flow, §5.2.3). The data
		// is already kernel-owned, so the transfer survives a client
		// death in the window (no epoch guard).
		putData := o.req.Data
		//lint:allow noalloc (cold: stale-exchange data re-supply)
		n.k.After(0, func() {
			//lint:allow noalloc (cold: stale-exchange data re-supply)
			n.ep.SendResolvingHold(src, frame.Encode(&frame.AcceptData{TID: m.TID, Data: putData}), nil, nil)
		})
		n.applyAccept(o, m)
		return deltat.Decision{Verdict: deltat.VerdictHold, HoldTimeout: -1}
	}
	n.applyAccept(o, m)
	// The data's acknowledgement is deferred briefly: a new REQUEST
	// issued in reaction to this completion carries it (§5.2.3). The
	// transport owns the obligation, so it survives client death.
	return deltat.Decision{Verdict: deltat.VerdictAckDeferred}
}

// onAcceptData delivers re-sent put data to a waiting ACCEPT.
func (n *Node) onAcceptData(src frame.MID, m *frame.AcceptData) deltat.Decision {
	sig := frame.RequesterSig{MID: src, TID: m.TID}
	in, ok := n.delivered[sig]
	if !ok || !in.needData {
		return deltat.Decision{Verdict: deltat.VerdictAck}
	}
	in.gotData = m.Data
	in.gotDataOK = true
	n.maybeFinishAccept(in)
	return deltat.Decision{Verdict: deltat.VerdictAck}
}

// onCancel implements the server side of CANCEL (§3.3.3): discard the
// delivered request unless an ACCEPT is already under way.
func (n *Node) onCancel(src frame.MID, m *frame.Cancel) deltat.Decision {
	sig := frame.RequesterSig{MID: src, TID: m.TID}
	in, ok := n.delivered[sig]
	granted := ok && !in.accepting
	if granted {
		delete(n.delivered, sig)
		in.timeoutGen++
	}
	return deltat.Decision{
		Verdict: deltat.VerdictAck,
		//lint:allow noalloc (cold: CANCEL is exceptional traffic)
		Reply: frame.Encode(&frame.CancelReply{TID: m.TID, OK: granted}),
	}
}

// onProbe answers the request-monitoring probe (§3.6.2).
func (n *Node) onProbe(src frame.MID, m *frame.Probe) deltat.Decision {
	sig := frame.RequesterSig{MID: src, TID: m.TID}
	_, alive := n.delivered[sig]
	return deltat.Decision{
		Verdict: deltat.VerdictAck,
		//lint:allow noalloc (cold: probe replies answer slow-accept monitoring)
		Reply: frame.Encode(&frame.ProbeReply{TID: m.TID, Alive: alive}),
	}
}

// maybeFinishAccept resumes a client blocked in ACCEPT once the exchange is
// complete (acknowledged, and any required data re-fetch has arrived) or
// has failed.
func (n *Node) maybeFinishAccept(in *inRequest) {
	if in.acceptWaiter == nil {
		return
	}
	done := in.failStatus != 0 || (in.acceptOut && (!in.needData || in.gotDataOK))
	if done && in.acceptWaiter.Suspended() {
		in.acceptWaiter.Resume()
	}
}

// acceptRequest implements ACCEPT (§3.3.2): blocking, bounded, returning
// the status, any received put data, and the transfer sizes.
//
//lint:hotpath
func (n *Node) acceptRequest(p *sim.Proc, sig frame.RequesterSig, arg int32, getCap int, put []byte) (AcceptStatus, []byte, int, int) {
	in, ok := n.delivered[sig]
	if !ok || in.accepting {
		// Unknown here (guessed, cancelled, or already accepted):
		// forward to the requester's kernel, which adjudicates
		// CANCELLED vs CRASHED from its TID window (§5.4).
		//lint:allow noalloc (cold: orphan accepts answer guessed or cancelled signatures)
		res := n.sendOrphanAccept(p, sig, arg, getCap)
		if (n.client == nil || !n.client.dead) && n.cfg.Observer != nil {
			n.observe(ObsEvent{Kind: ObsAccept, Sig: sig, Accept: res})
		}
		return res, nil, 0, 0
	}
	in.accepting = true
	in.timeoutGen++ // the accept window no longer applies
	putN := min(in.putSize, getCap)
	getN := min(in.getSize, len(put))
	needD := putN > 0 && !in.hasData
	holdPending := !in.acked

	if holdPending && getN == 0 && !needD {
		// Fast path: the ACCEPT piggybacks entirely on the REQUEST's
		// acknowledgement — a PUT costs two packets (§5.2.3). The data
		// is already local, so the server is not delayed at all.
		in.acked = true
		in.acc = frame.Accept{TID: sig.TID, Arg: arg, GetSize: uint32(getCap)}
		reply := frame.Encode(&in.acc)
		n.ep.ResolveHold(sig.MID, deltat.Decision{Verdict: deltat.VerdictAck, Reply: reply})
		delete(n.delivered, sig)
		if n.cfg.Observer != nil {
			n.observe(ObsEvent{Kind: ObsAccept, Sig: sig, Accept: AcceptSuccess})
		}
		return AcceptSuccess, in.data[:putN], putN, getN
	}

	in.acc = frame.Accept{
		TID:      sig.TID,
		Arg:      arg,
		GetSize:  uint32(getCap),
		NeedData: needD,
		Data:     put[:getN],
	}
	payload := frame.Encode(&in.acc)
	in.needData = needD
	epoch := n.epoch
	if holdPending {
		in.acked = true
		if n.ep.OutboxBusy(sig.MID) {
			// Crossing requests: our own REQUEST to this peer is still
			// in flight, so a DATA-frame accept would queue behind it —
			// and the peer is symmetrically stuck, a deadlock. ACCEPT
			// must never be prevented from executing (§5.2.2): ride the
			// held REQUEST's acknowledgement instead. Loss recovery
			// comes from duplicate-replay of the cached ACK payload.
			n.ep.ResolveHold(sig.MID, deltat.Decision{Verdict: deltat.VerdictAck, Reply: payload})
			in.acceptOut = true
		} else {
			n.ep.SendResolvingHold(sig.MID, payload, nil, n.acceptSent(in))
		}
	} else {
		n.ep.SendUrgent(sig.MID, payload, nil, n.acceptSent(in))
	}
	if needD {
		gen := in.timeoutGen
		//lint:allow noalloc (cold: data re-fetch timeout arms only when put data was dropped)
		n.k.After(n.cfg.AcceptDataTimeout, func() {
			if epoch != n.epoch || in.timeoutGen != gen {
				return
			}
			if !in.gotDataOK && in.failStatus == 0 {
				in.failStatus = AcceptCrashed
				n.maybeFinishAccept(in)
			}
		})
	}
	in.acceptWaiter = p
	for in.failStatus == 0 && !(in.acceptOut && (!in.needData || in.gotDataOK)) {
		p.Suspend()
		if n.client != nil && n.client.dead {
			break
		}
	}
	in.acceptWaiter = nil
	delete(n.delivered, sig)
	if in.failStatus != 0 {
		if n.cfg.Observer != nil {
			n.observe(ObsEvent{Kind: ObsAccept, Sig: sig, Accept: in.failStatus})
		}
		return in.failStatus, nil, 0, 0
	}
	if in.acceptOut && (!in.needData || in.gotDataOK) && n.cfg.Observer != nil {
		// Observed only when the handshake truly finished: the loop also
		// exits when the client dies mid-accept, with the outcome unknown.
		n.observe(ObsEvent{Kind: ObsAccept, Sig: sig, Accept: AcceptSuccess})
	}
	data := in.data
	if needD {
		data = in.gotData
	}
	if len(data) > putN {
		data = data[:putN]
	}
	return AcceptSuccess, data, putN, getN
}

// acceptSent returns the send-completion callback of in's ACCEPT message.
func (n *Node) acceptSent(in *inRequest) func(deltat.Result) {
	r := n.newPending(pendingAcceptSent)
	r.in = in
	return r.sent
}

// acceptSendDone handles the transport outcome of an ACCEPT message.
func (n *Node) acceptSendDone(in *inRequest, res deltat.Result) {
	switch res.Kind {
	case deltat.ResultAcked:
		in.acceptOut = true
	case deltat.ResultError:
		if res.Err == frame.ErrStale {
			in.failStatus = AcceptCrashed
		} else {
			in.failStatus = AcceptCancelled
		}
	case deltat.ResultPeerDead:
		in.failStatus = AcceptCrashed
	}
	n.maybeFinishAccept(in)
}

// sendOrphanAccept forwards an ACCEPT for a request this kernel does not
// hold; the requester kernel always rejects it with the proper status.
func (n *Node) sendOrphanAccept(p *sim.Proc, sig frame.RequesterSig, arg int32, getCap int) AcceptStatus {
	if sig.MID == n.mid || sig.MID == frame.BroadcastMID {
		return AcceptCancelled
	}
	st := AcceptCancelled
	done := false
	msg := frame.Encode(&frame.Accept{TID: sig.TID, Arg: arg, GetSize: uint32(getCap)})
	epoch := n.epoch
	n.ep.SendUrgent(sig.MID, msg, nil, func(res deltat.Result) {
		if epoch != n.epoch {
			return
		}
		done = true
		switch {
		case res.Kind == deltat.ResultError && res.Err == frame.ErrStale:
			st = AcceptCrashed
		case res.Kind == deltat.ResultPeerDead:
			st = AcceptCrashed
		case res.Kind == deltat.ResultAcked:
			// The requester kernel never grants an accept it did not
			// see delivered; treat an unexpected grant as cancelled.
			st = AcceptCancelled
		default:
			st = AcceptCancelled
		}
		if p.Suspended() {
			p.Resume()
		}
	})
	for !done {
		p.Suspend()
		if n.client != nil && n.client.dead {
			break
		}
	}
	return st
}

// cancelRequest implements CANCEL (§3.3.3): it may delay the requester
// only long enough to learn the server's state, and fails whenever the
// request completed first.
func (n *Node) cancelRequest(p *sim.Proc, sig frame.RequesterSig) bool {
	if sig.MID != n.mid {
		return false
	}
	o, ok := n.outstanding[sig.TID]
	if !ok {
		return false
	}
	// A request is only cancellable once acknowledged (§5.2.3); wait for
	// the delivery state to settle (bounded by the transport).
	for !o.delivered {
		o.cancelWaiter = p
		p.Suspend()
		o.cancelWaiter = nil
		if n.client != nil && n.client.dead {
			return false
		}
		if _, live := n.outstanding[sig.TID]; !live {
			return false // completed while we waited
		}
	}
	granted := false
	done := false
	epoch := n.epoch
	n.ep.Send(o.dst.MID, frame.Encode(&frame.Cancel{TID: sig.TID}), nil, func(res deltat.Result) {
		if epoch != n.epoch {
			return
		}
		done = true
		if res.Kind == deltat.ResultAcked {
			if msg, err := frame.Decode(res.Reply); err == nil {
				if cr, ok := msg.(*frame.CancelReply); ok && cr.TID == sig.TID {
					granted = cr.OK
				}
			}
		} else if res.Kind == deltat.ResultPeerDead {
			// The server is gone: the request is about to complete
			// CRASHED; the cancel itself fails.
			if cur, live := n.outstanding[sig.TID]; live {
				n.completeRequest(cur, StatusCrashed, 0, nil, 0, 0)
			}
		}
		if p.Suspended() {
			p.Resume()
		}
	})
	for !done {
		o.cancelWaiter = p
		p.Suspend()
		o.cancelWaiter = nil
		if n.client != nil && n.client.dead {
			return false
		}
	}
	if _, live := n.outstanding[sig.TID]; !live {
		return false // completion won the race (§3.3.3)
	}
	if !granted {
		return false
	}
	// Cancelled before completion: remove silently — the handler is
	// never invoked for a successfully cancelled request.
	delete(n.outstanding, sig.TID)
	o.probeGen++
	if n.cfg.Observer != nil {
		n.observe(ObsEvent{Kind: ObsCancelled, Sig: sig})
	}
	return true
}
