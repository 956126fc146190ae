package core

import (
	"soda/internal/frame"
	"soda/internal/sim"
)

// ObsKind discriminates observer events (see ObsEvent).
type ObsKind int

const (
	// ObsIssue: a REQUEST was issued; Sig identifies it, Dst names the
	// addressed service (Dst.MID is BroadcastMID for DISCOVER).
	ObsIssue ObsKind = iota + 1
	// ObsDelivered: the REQUEST's transport send completed — the server
	// kernel acknowledged it (the requester-side delivery hop, between
	// issue and the server-side arrival).
	ObsDelivered
	// ObsArrival: a REQUEST was delivered to this node's client handler;
	// Sig identifies the request, Dst the local service it matched.
	ObsArrival
	// ObsComplete: a REQUEST completed; Sig identifies it, Status the
	// outcome.
	ObsComplete
	// ObsCancelled: a REQUEST was withdrawn by a successful CANCEL
	// before completing; its handler is never invoked.
	ObsCancelled
	// ObsAccept: an ACCEPT resolved at the serving node; Sig names the
	// accepted request, Accept the outcome.
	ObsAccept
	// ObsCrash: the node crashed (processor failure).
	ObsCrash
	// ObsDie: the node's client executed DIE (or was killed, or its task
	// returned).
	ObsDie
	// ObsReboot: the node rejoined the network after a crash.
	ObsReboot
	// ObsAdvertise: a client pattern was bound to this node's handler;
	// Pattern names it. With ObsUnadvertise, ObsCrash and ObsDie this is
	// the feed a pattern directory (the internet layer's DISCOVER cache)
	// needs to stay coherent.
	ObsAdvertise
	// ObsUnadvertise: a client pattern binding was removed; Pattern names
	// it.
	ObsUnadvertise
)

func (k ObsKind) String() string {
	switch k {
	case ObsIssue:
		return "ISSUE"
	case ObsDelivered:
		return "DELIVERED"
	case ObsArrival:
		return "ARRIVAL"
	case ObsComplete:
		return "COMPLETE"
	case ObsCancelled:
		return "CANCELLED"
	case ObsAccept:
		return "ACCEPT"
	case ObsCrash:
		return "CRASH"
	case ObsDie:
		return "DIE"
	case ObsReboot:
		return "REBOOT"
	case ObsAdvertise:
		return "ADVERTISE"
	case ObsUnadvertise:
		return "UNADVERTISE"
	default:
		return "OBS(?)"
	}
}

// ObsEvent is one entry of the kernel's observer stream: the client-visible
// protocol transitions (request issue, delivery, completion, accept
// outcomes) plus node lifecycle changes. The stream feeds the fault layer's
// invariant checkers and the obs layer's tracer and metrics registry; it is
// not part of the SODA model and emitting it must never change kernel
// behavior.
//
// Construct it only under a nil-consumer guard (sodavet obszerocost).
//
//lint:event
type ObsEvent struct {
	At   sim.Time
	Kind ObsKind
	// Node is the machine the event happened on.
	Node frame.MID
	// Sig identifies the request concerned (zero for lifecycle events).
	Sig frame.RequesterSig
	// Dst is the addressed service (ObsIssue) or the local service
	// matched (ObsArrival).
	Dst frame.ServerSig
	// Status is the completion outcome (ObsComplete only).
	Status Status
	// Accept is the accept outcome (ObsAccept only).
	Accept AcceptStatus
	// Pattern is the client pattern concerned (ObsAdvertise and
	// ObsUnadvertise only).
	Pattern frame.Pattern
}

// observe emits ev on the node's observer, stamping time and place.
func (n *Node) observe(ev ObsEvent) {
	if n.cfg.Observer == nil {
		return
	}
	ev.At = n.k.Now()
	ev.Node = n.mid
	//lint:allow noalloc (observer: nil-guarded kernel event emission, absent on measured runs)
	n.cfg.Observer(ev)
}
