package faults

import (
	"fmt"

	"soda/internal/bus"
	"soda/internal/core"
	"soda/internal/frame"
	"soda/internal/sortediter"
)

// maxViolations bounds the report; past it a run is broken enough.
const maxViolations = 64

// Checker is the always-on invariant layer: it consumes the kernels'
// observer streams and the bus's delivery tap and records violations of
// the reliability guarantees the paper claims hold under arbitrary loss,
// crash, and recovery (§3.6, §5.2.2):
//
//   - exactly-once: a request signature is issued once, arrives at a
//     client handler at most once, and resolves at most once
//   - ordering: between a fixed requester and a fixed serving node,
//     requests arrive in TID (issue) order — the transport's FIFO links
//     and the kernel's send queue must not reorder them
//   - cancel/complete exclusivity: a successful CANCEL and a delivered
//     completion never both happen, and a cancelled request is never
//     successfully ACCEPTed
//   - crash staleness: after a requester crashes or dies, its old
//     requests never complete (no stale ACCEPT is ever applied); a
//     never-issued signature is never successfully accepted
//   - wire sanity: delivered frames decode cleanly unless the fault
//     model corrupted them, in which case they must never decode
//
// A Checker is fed during the run (Observe, ObserveDelivery) and
// adjudicated after it (Finish, Unresolved). It is not safe for use from
// outside the simulation's single-threaded context.
type Checker struct {
	reqs        map[frame.RequesterSig]*reqState
	order       map[link]frame.TID
	incarnation map[MID]int
	violations  []string
	overflowed  bool

	requests  int
	frames    uint64
	corrupted uint64
}

type link struct{ requester, server MID }

type reqState struct {
	issueInc int // requester incarnation at issue time
	dst      frame.ServerSig
	arrivals int
	// terminal outcome
	completed bool
	status    core.Status
	cancelled bool
	absolved  bool // requester crashed/died while the request was open
	// accept bookkeeping at the serving side
	acceptSuccess int
	acceptFails   int
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{
		reqs:        make(map[frame.RequesterSig]*reqState),
		order:       make(map[link]frame.TID),
		incarnation: make(map[MID]int),
	}
}

func (ch *Checker) violate(format string, args ...any) {
	if len(ch.violations) >= maxViolations {
		ch.overflowed = true
		return
	}
	ch.violations = append(ch.violations, fmt.Sprintf(format, args...))
}

// Observe consumes one kernel observer event. Wire it to every node via
// core.Config.Observer (soda.WithInvariantChecks does this).
func (ch *Checker) Observe(ev core.ObsEvent) {
	switch ev.Kind {
	case core.ObsIssue:
		if _, dup := ch.reqs[ev.Sig]; dup {
			ch.violate("t=%v: %v issued twice (TID reuse)", ev.At, ev.Sig)
			return
		}
		ch.requests++
		ch.reqs[ev.Sig] = &reqState{issueInc: ch.incarnation[ev.Node], dst: ev.Dst}

	case core.ObsArrival:
		s := ch.reqs[ev.Sig]
		if s == nil {
			ch.violate("t=%v: arrival of never-issued %v at node %d", ev.At, ev.Sig, ev.Node)
			return
		}
		s.arrivals++
		if s.arrivals > 1 {
			ch.violate("t=%v: %v delivered %d times (exactly-once broken)", ev.At, ev.Sig, s.arrivals)
		}
		if s.dst.MID != frame.BroadcastMID && ev.Node != s.dst.MID {
			ch.violate("t=%v: %v addressed to node %d but arrived at %d", ev.At, ev.Sig, s.dst.MID, ev.Node)
		}
		l := link{requester: ev.Sig.MID, server: ev.Node}
		if last, seen := ch.order[l]; seen && ev.Sig.TID <= last {
			ch.violate("t=%v: %v arrived at node %d after TID %d (per-pair order broken)", ev.At, ev.Sig, ev.Node, last)
		}
		ch.order[l] = ev.Sig.TID

	case core.ObsComplete:
		s := ch.reqs[ev.Sig]
		if s == nil {
			ch.violate("t=%v: completion of never-issued %v", ev.At, ev.Sig)
			return
		}
		if ev.Node != ev.Sig.MID {
			ch.violate("t=%v: completion of %v delivered at node %d", ev.At, ev.Sig, ev.Node)
		}
		if s.absolved {
			ch.violate("t=%v: %v completed (%v) after its requester crashed — stale state survived recovery", ev.At, ev.Sig, ev.Status)
		}
		if s.completed {
			ch.violate("t=%v: %v completed twice (second: %v)", ev.At, ev.Sig, ev.Status)
		}
		if s.cancelled {
			ch.violate("t=%v: %v completed (%v) after a successful CANCEL", ev.At, ev.Sig, ev.Status)
		}
		s.completed = true
		s.status = ev.Status

	case core.ObsCancelled:
		s := ch.reqs[ev.Sig]
		if s == nil {
			ch.violate("t=%v: CANCEL granted for never-issued %v", ev.At, ev.Sig)
			return
		}
		if s.completed {
			ch.violate("t=%v: CANCEL granted for %v after it completed (%v)", ev.At, ev.Sig, s.status)
		}
		if s.cancelled {
			ch.violate("t=%v: CANCEL granted twice for %v", ev.At, ev.Sig)
		}
		s.cancelled = true

	case core.ObsAccept:
		s := ch.reqs[ev.Sig]
		if s == nil {
			if ev.Accept == core.AcceptSuccess {
				ch.violate("t=%v: node %d successfully accepted never-issued %v (guessed signature)", ev.At, ev.Node, ev.Sig)
			}
			return
		}
		if ev.Accept != core.AcceptSuccess {
			s.acceptFails++
			return
		}
		s.acceptSuccess++
		if s.acceptSuccess > 1 {
			ch.violate("t=%v: %v accepted successfully %d times", ev.At, ev.Sig, s.acceptSuccess)
		}
		if s.dst.MID != frame.BroadcastMID && ev.Node != s.dst.MID {
			ch.violate("t=%v: %v addressed to node %d but accepted at %d", ev.At, ev.Sig, s.dst.MID, ev.Node)
		}
		if s.cancelled {
			ch.violate("t=%v: %v accepted successfully after a successful CANCEL", ev.At, ev.Sig)
		}

	case core.ObsCrash, core.ObsDie:
		// The node's client state is gone: its open requests can never
		// legitimately resolve now; any later completion is stale.
		ch.incarnation[ev.Node]++
		for sig, s := range ch.reqs {
			if sig.MID == ev.Node && !s.completed && !s.cancelled && s.issueInc == ch.incarnation[ev.Node]-1 {
				s.absolved = true
			}
		}
	}
}

// ObserveDelivery consumes one bus delivery: the CRC stand-in must reject
// exactly the frames the fault model damaged.
func (ch *Checker) ObserveDelivery(ev bus.DeliveryEvent) {
	ch.frames++
	err := frame.CheckTransport(ev.Raw)
	if ev.Corrupted {
		ch.corrupted++
		if err == nil {
			ch.violate("t=%v: corrupted frame %d->%d decoded cleanly (undetectable damage)", ev.At, ev.Src, ev.Dst)
		}
		return
	}
	if err != nil {
		ch.violate("t=%v: undamaged frame %d->%d failed transport decode: %v", ev.At, ev.Src, ev.Dst, err)
	}
}

// sortedSigs returns the tracked signatures in (MID, TID) order, for
// deterministic reports.
func (ch *Checker) sortedSigs() []frame.RequesterSig {
	return sortediter.KeysFunc(ch.reqs, func(a, b frame.RequesterSig) bool {
		if a.MID != b.MID {
			return a.MID < b.MID
		}
		return a.TID < b.TID
	})
}

// Finish runs the end-of-run cross-checks (requester and server views of
// each request must agree) and returns every violation recorded. Call it
// once the simulation is over; it may be called repeatedly.
func (ch *Checker) Finish() []string {
	out := append([]string(nil), ch.violations...)
	for _, sig := range ch.sortedSigs() {
		s := ch.reqs[sig]
		if s.absolved {
			// The requester's crash voids both views; nothing to agree on.
			continue
		}
		// A server-side SUCCESS with a requester-side CRASHED is the
		// two-generals gap the paper accepts (the accept reply can die
		// with the link); any other disagreement is a protocol bug.
		if s.acceptSuccess > 0 && s.completed && s.status != core.StatusSuccess && s.status != core.StatusCrashed {
			out = append(out, fmt.Sprintf("%v: server view SUCCESS but requester completed %v", sig, s.status))
		}
	}
	if ch.overflowed {
		out = append(out, fmt.Sprintf("... violation report truncated at %d entries", maxViolations))
	}
	return out
}

// Unresolved returns the signatures of requests that are still open: not
// completed, not cancelled, and not voided by their requester's death. At
// the end of a settled run this must be empty — anything listed is stuck.
func (ch *Checker) Unresolved() []frame.RequesterSig {
	var out []frame.RequesterSig
	for _, sig := range ch.sortedSigs() {
		s := ch.reqs[sig]
		if !s.completed && !s.cancelled && !s.absolved {
			out = append(out, sig)
		}
	}
	return out
}

// Requests reports how many distinct requests the checker tracked.
func (ch *Checker) Requests() int { return ch.requests }

// Frames reports delivered frames observed, and how many were corrupted.
func (ch *Checker) Frames() (total, corrupted uint64) { return ch.frames, ch.corrupted }
