package obs

import (
	"soda/internal/bus"
	"soda/internal/core"
	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
)

// TraceConfig tunes what the Tracer records.
type TraceConfig struct {
	// Wire additionally records an instant for every per-receiver frame
	// delivery (kind, src, size). Complete wire visibility, but traces
	// grow with frame count; off by default.
	Wire bool
}

// Span is the causal record of one REQUEST lifecycle, assembled from the
// kernel observer stream (issue, delivery, arrival, accept, completion), the
// transport observer stream, and the bus delivery tap (wire hops). All
// timestamps are virtual; Has* guards report which hops were observed —
// a lossy or crashing run legitimately produces partial spans.
type Span struct {
	Sig       frame.RequesterSig
	Requester frame.MID
	// Server is the addressed machine (BroadcastMID for DISCOVER);
	// ArrivalNode is where the request actually reached a handler.
	Server      frame.MID
	ArrivalNode frame.MID
	Pattern     frame.Pattern
	Discover    bool

	Issue sim.Time
	// WireArrival: the REQUEST frame reached the server's interface.
	WireArrival    sim.Time
	HasWireArrival bool
	// Arrival: the server's client handler received the request.
	Arrival    sim.Time
	HasArrival bool
	// Accept: the ACCEPT resolved at the serving node.
	Accept       sim.Time
	HasAccept    bool
	AcceptStatus core.AcceptStatus
	// WireAccept: the ACCEPT frame reached the requester's interface.
	WireAccept    sim.Time
	HasWireAccept bool
	// Delivered: the requester kernel learned its REQUEST was consumed.
	Delivered    sim.Time
	HasDelivered bool
	// End: completion (Status set) or cancellation (Cancelled set).
	End       sim.Time
	Done      bool
	Cancelled bool
	Status    core.Status
}

// last reports the latest timestamp observed on the span, for closing
// unresolved spans in exports.
func (s *Span) last() sim.Time {
	t := s.Issue
	for _, c := range []struct {
		has bool
		at  sim.Time
	}{
		{s.HasWireArrival, s.WireArrival},
		{s.HasArrival, s.Arrival},
		{s.HasAccept, s.Accept},
		{s.HasWireAccept, s.WireAccept},
		{s.HasDelivered, s.Delivered},
		{s.Done, s.End},
	} {
		if c.has && c.at > t {
			t = c.at
		}
	}
	return t
}

// instant is a point event outside any span (transport machinery, node
// lifecycle, optional wire deliveries).
type instant struct {
	at   sim.Time
	node frame.MID
	name string
	cat  string
	args map[string]int64
}

// Tracer assembles spans and instants from the three observer streams. Wire
// it through soda.WithTracer, or feed Observe / ObserveTransport /
// ObserveDelivery directly. Events must arrive in virtual-time order (the
// simulation is single-threaded, so they do); everything recorded is kept in
// arrival order, making exports byte-identical across same-seed runs.
type Tracer struct {
	cfg      TraceConfig
	spans    []*Span
	bySig    map[frame.RequesterSig]*Span
	instants []instant
	nodes    map[frame.MID]bool
	lastAt   sim.Time
}

// NewTracer creates a tracer with default config.
func NewTracer() *Tracer { return NewTracerWith(TraceConfig{}) }

// NewTracerWith creates a tracer with explicit config.
func NewTracerWith(cfg TraceConfig) *Tracer {
	return &Tracer{
		cfg:   cfg,
		bySig: make(map[frame.RequesterSig]*Span),
		nodes: make(map[frame.MID]bool),
	}
}

// Spans returns the assembled spans in issue order. The slice is the
// tracer's own; callers must not mutate it.
func (t *Tracer) Spans() []*Span { return t.spans }

func (t *Tracer) seen(mid frame.MID, at sim.Time) {
	if mid != frame.BroadcastMID {
		t.nodes[mid] = true
	}
	if at > t.lastAt {
		t.lastAt = at
	}
}

func (t *Tracer) addInstant(at sim.Time, node frame.MID, cat, name string, args map[string]int64) {
	t.seen(node, at)
	t.instants = append(t.instants, instant{at: at, node: node, name: name, cat: cat, args: args})
}

// Observe consumes one kernel observer event.
func (t *Tracer) Observe(ev core.ObsEvent) {
	t.seen(ev.Node, ev.At)
	switch ev.Kind {
	case core.ObsIssue:
		s := &Span{
			Sig:       ev.Sig,
			Requester: ev.Node,
			Server:    ev.Dst.MID,
			Pattern:   ev.Dst.Pattern,
			Discover:  ev.Dst.MID == frame.BroadcastMID,
			Issue:     ev.At,
		}
		// A crashed-and-rebooted requester restarts its TID sequence in a
		// new epoch; the old span (if unresolved) stays as-is and the new
		// issue takes over the signature.
		t.spans = append(t.spans, s)
		t.bySig[ev.Sig] = s
	case core.ObsDelivered:
		if s := t.bySig[ev.Sig]; s != nil && !s.HasDelivered {
			s.Delivered = ev.At
			s.HasDelivered = true
		}
	case core.ObsArrival:
		if s := t.bySig[ev.Sig]; s != nil && !s.HasArrival {
			s.Arrival = ev.At
			s.HasArrival = true
			s.ArrivalNode = ev.Node
		}
	case core.ObsComplete:
		if s := t.bySig[ev.Sig]; s != nil && !s.Done {
			s.End = ev.At
			s.Done = true
			s.Status = ev.Status
		}
	case core.ObsCancelled:
		if s := t.bySig[ev.Sig]; s != nil && !s.Done {
			s.End = ev.At
			s.Done = true
			s.Cancelled = true
		}
	case core.ObsAccept:
		if s := t.bySig[ev.Sig]; s != nil && !s.HasAccept && ev.Node == s.ArrivalNode && s.HasArrival {
			s.Accept = ev.At
			s.HasAccept = true
			s.AcceptStatus = ev.Accept
		}
	case core.ObsCrash, core.ObsDie, core.ObsReboot:
		t.addInstant(ev.At, ev.Node, "lifecycle", ev.Kind.String(), nil)
	}
}

// ObserveTransport consumes one transport observer event. Protocol-recovery
// events (retransmit — selective included, window adaptation, busy retry,
// peer-dead, record expiry/close) are always recorded; per-frame
// acknowledgement traffic (SACK-bearing acks included) only under
// TraceConfig.Wire.
func (t *Tracer) ObserveTransport(ev deltat.Event) {
	t.seen(ev.Node, ev.At)
	switch ev.Kind {
	case deltat.EvAckTx, deltat.EvAckRx, deltat.EvPiggybackAck, deltat.EvConnOpen,
		deltat.EvCumAck, deltat.EvSackTx:
		if !t.cfg.Wire {
			return
		}
	}
	args := map[string]int64{"peer": int64(ev.Peer), "seq": int64(ev.Seq)}
	if ev.Attempt > 0 {
		args["attempt"] = int64(ev.Attempt)
	}
	t.addInstant(ev.At, ev.Node, "transport", ev.Kind.String(), args)
}

// ObserveDelivery consumes one bus delivery event, filling the span's wire
// hops (the REQUEST frame reaching the server, the ACCEPT frame reaching the
// requester) by decoding the delivered bytes. Corrupt or non-kernel frames
// are ignored — the tracer observes, the checker judges.
func (t *Tracer) ObserveDelivery(ev bus.DeliveryEvent) {
	// The tracer keeps nothing of the payload, and frame.Decode copies
	// what it keeps, so the decode may alias the wire bytes.
	f, err := frame.DecodeTransportShared(ev.Raw)
	if err != nil {
		return
	}
	if t.cfg.Wire {
		t.addInstant(ev.At, ev.Dst, "wire", f.Kind.String(),
			map[string]int64{"src": int64(ev.Src), "size": int64(len(ev.Raw))})
	}
	if len(f.Payload) == 0 {
		return
	}
	switch f.Kind {
	case frame.TransportData, frame.TransportAck, frame.TransportDatagram:
	default:
		return
	}
	m, err := frame.Decode(f.Payload)
	if err != nil {
		return
	}
	switch msg := m.(type) {
	case *frame.Request:
		// The requester is the transport source; the frame reached ev.Dst.
		if s := t.bySig[frame.RequesterSig{MID: ev.Src, TID: msg.TID}]; s != nil && !s.HasWireArrival {
			if s.Server == ev.Dst || s.Discover {
				s.WireArrival = ev.At
				s.HasWireArrival = true
			}
		}
	case *frame.Accept:
		// The accept travels server → requester; the requester is ev.Dst.
		if s := t.bySig[frame.RequesterSig{MID: ev.Dst, TID: msg.TID}]; s != nil && !s.HasWireAccept {
			s.WireAccept = ev.At
			s.HasWireAccept = true
		}
	}
}
