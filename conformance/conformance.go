// Package conformance cross-validates the two transport backends behind
// the SODA kernel API: the deterministic simulated bus and the real TCP
// socket transport (DESIGN.md §16).
//
// Each count-based entry of the scenario catalogue runs on both backends.
// From every run the harness extracts the backend-independent observable —
// the per-node sequence of primitive lifecycle events from the kernel
// observer stream, stripped of timestamps and transaction ids — and checks
// that the socket run's ordering is a linearization the simulation oracle
// admits:
//
//   - Lifecycle events (advertise, unadvertise, die, crash, reboot) must
//     appear in exactly the same per-node order on both backends: they
//     are program-order facts, independent of message timing.
//   - Request chains — the events sharing one ⟨requester, TID⟩ signature
//     on one node — are compared as per-node multisets of TID-stripped
//     contents: the interleaving of independent requests is timing, but
//     every request's own trajectory must exist on both backends. The
//     delivered hop is excluded — whether it fires depends on whether the
//     ACCEPT piggybacks on the transport ACK, a speed fact.
//   - Broadcast (DISCOVER) chains are compared as sets of distinct
//     contents: an unanswered DISCOVER is indistinguishable from an
//     answered one in the requester's observer stream, so retry loops may
//     legally issue more of them on the slower backend.
//   - Chains addressed to a scenario's declared Elastic patterns are
//     excluded: their volume is timing-driven by design (periodic
//     deadlock probes, rendezvous retry queries), and the scenario's own
//     semantic Check covers their effect instead.
//
// Divergences are reported as minimized per-node event diffs: the first
// diverging lifecycle position, and each unmatched chain next to the
// closest chain of the other run.
package conformance

import (
	"fmt"
	"sort"
	"strings"

	"soda"
	"soda/internal/core"
	"soda/internal/sortediter"
)

// Recorder accumulates one run's kernel events. Subscribe Observe to the
// network's stream; on a socket run use one Recorder per node's network so
// every append happens on that network's driver goroutine.
type Recorder struct {
	events []core.ObsEvent
}

// Observe appends one event (a Subscriber's Kernel callback).
func (r *Recorder) Observe(ev core.ObsEvent) { r.events = append(r.events, ev) }

// Events returns the recorded stream.
func (r *Recorder) Events() []core.ObsEvent { return r.events }

// Chain is the TID-stripped trajectory of one request signature on one
// node: the requester side (issue, delivered, complete) or the serving
// side (arrival, accepts).
type Chain struct {
	Node soda.MID
	// Broadcast marks a DISCOVER chain (issued to the broadcast MID).
	Broadcast bool
	// Pattern is the addressed (or locally matched) service pattern.
	Pattern soda.Pattern
	// Events are the rendered, stripped event lines.
	Events []string
}

// Content is the chain's comparison key: everything but the TID and
// timestamps.
func (c Chain) Content() string { return strings.Join(c.Events, "; ") }

// NodeTranscript is one node's projected observable.
type NodeTranscript struct {
	// Lifecycle lists the rendered lifecycle events in program order.
	Lifecycle []string
	// Chains lists request chains ordered by first appearance.
	Chains []Chain
}

// Transcript is one run's backend-neutral observable, per node.
type Transcript struct {
	Nodes map[soda.MID]*NodeTranscript
}

// renderPattern neutralizes dynamically allocated patterns (unique ids,
// file descriptors, load capabilities): their bit patterns depend on
// allocation timing, so only well-known and reserved names are kept.
func renderPattern(p soda.Pattern) string {
	if p.WellKnown() || p.Reserved() {
		return p.String()
	}
	return "dyn"
}

// renderEvent produces the stripped line for one observer event; ok is
// false for kinds that are not part of the neutral observable.
func renderEvent(ev core.ObsEvent) (line string, lifecycle, ok bool) {
	switch ev.Kind {
	case core.ObsIssue:
		dst := fmt.Sprintf("%d", ev.Dst.MID)
		if ev.Dst.MID == soda.BroadcastMID {
			dst = "*"
		}
		return fmt.Sprintf("issue %s:%s", dst, renderPattern(ev.Dst.Pattern)), false, true
	case core.ObsDelivered:
		// Excluded from the neutral observable: delivered is only emitted
		// when the ACCEPT loses the race against the Delta-t ACK (the
		// §5.2.3 piggyback best case skips it), so its presence encodes
		// relative transport speed, not primitive semantics.
		return "", false, false
	case core.ObsArrival:
		return fmt.Sprintf("arrival %s", renderPattern(ev.Dst.Pattern)), false, true
	case core.ObsComplete:
		return fmt.Sprintf("complete %v", ev.Status), false, true
	case core.ObsCancelled:
		return "cancelled", false, true
	case core.ObsAccept:
		return fmt.Sprintf("accept %v", ev.Accept), false, true
	case core.ObsCrash:
		return "crash", true, true
	case core.ObsDie:
		return "die", true, true
	case core.ObsReboot:
		return "reboot", true, true
	case core.ObsAdvertise:
		return fmt.Sprintf("advertise %s", renderPattern(ev.Pattern)), true, true
	case core.ObsUnadvertise:
		return fmt.Sprintf("unadvertise %s", renderPattern(ev.Pattern)), true, true
	}
	return "", false, false
}

// Project builds the neutral transcript from one run's recorded events.
// Events must be in per-node emission order (they are, both for a single
// sim recorder and for per-network socket recorders merged whole).
func Project(events []core.ObsEvent) *Transcript {
	t := &Transcript{Nodes: make(map[soda.MID]*NodeTranscript)}
	type chainKey struct {
		node soda.MID
		sig  soda.RequesterSig
	}
	open := make(map[chainKey]int) // -> index into node's Chains
	for _, ev := range events {
		line, lifecycle, ok := renderEvent(ev)
		if !ok {
			continue
		}
		nt := t.Nodes[ev.Node]
		if nt == nil {
			nt = &NodeTranscript{}
			t.Nodes[ev.Node] = nt
		}
		if lifecycle {
			nt.Lifecycle = append(nt.Lifecycle, line)
			continue
		}
		key := chainKey{ev.Node, ev.Sig}
		idx, seen := open[key]
		if !seen {
			c := Chain{Node: ev.Node}
			switch ev.Kind {
			case core.ObsIssue:
				c.Broadcast = ev.Dst.MID == soda.BroadcastMID
				c.Pattern = ev.Dst.Pattern
			case core.ObsArrival:
				c.Pattern = ev.Dst.Pattern
			}
			idx = len(nt.Chains)
			nt.Chains = append(nt.Chains, c)
			open[key] = idx
		}
		nt.Chains[idx].Events = append(nt.Chains[idx].Events, line)
	}
	return t
}

// MIDs lists the transcript's nodes in ascending order.
func (t *Transcript) MIDs() []soda.MID {
	mids := sortediter.Keys(t.Nodes)
	return mids
}

// Render serializes the transcript deterministically: per node, the full
// lifecycle and chain listing. This is the golden-fixture format.
func (t *Transcript) Render() string {
	var b strings.Builder
	for _, mid := range t.MIDs() {
		nt := t.Nodes[mid]
		fmt.Fprintf(&b, "== node %d\n", mid)
		for _, l := range nt.Lifecycle {
			fmt.Fprintf(&b, "  %s\n", l)
		}
		for _, c := range nt.Chains {
			tag := "u"
			if c.Broadcast {
				tag = "b"
			}
			fmt.Fprintf(&b, "  [%s] %s\n", tag, c.Content())
		}
	}
	return b.String()
}

// commonPrefix counts the shared leading events of two chains.
func commonPrefix(a, b []string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// closest returns the candidate chain content most similar to want (by
// longest common event prefix), for divergence reporting.
func closest(want Chain, candidates []Chain) (Chain, bool) {
	best, bestScore := Chain{}, -1
	for _, c := range candidates {
		if s := commonPrefix(want.Events, c.Events); s > bestScore {
			best, bestScore = c, s
		}
	}
	return best, bestScore >= 0
}

// chainDiff renders a minimized two-column diff of an unmatched chain
// against the closest chain from the other backend.
func chainDiff(label string, missing Chain, others []Chain) string {
	var b strings.Builder
	fmt.Fprintf(&b, "    %s chain [%s]:\n", label, missing.Content())
	if near, ok := closest(missing, others); ok {
		p := commonPrefix(missing.Events, near.Events)
		fmt.Fprintf(&b, "      closest match diverges after %d shared events:\n", p)
		fmt.Fprintf(&b, "        %s: %s\n", label, strings.Join(missing.Events[p:], "; "))
		rest := near.Events[p:]
		fmt.Fprintf(&b, "        other: %s\n", strings.Join(rest, "; "))
	} else {
		fmt.Fprintf(&b, "      no chain of this shape on the other backend\n")
	}
	return b.String()
}

// Compare checks that the socket transcript is admissible against the sim
// oracle, returning one human-readable report per divergence (empty =
// equivalent). elastic lists patterns whose chains are excluded.
func Compare(sim, sock *Transcript, elastic []soda.Pattern) []string {
	skip := make(map[soda.Pattern]bool, len(elastic))
	for _, p := range elastic {
		skip[p] = true
	}
	var reports []string
	mids := make(map[soda.MID]bool)
	for _, mid := range sim.MIDs() {
		mids[mid] = true
	}
	for _, mid := range sock.MIDs() {
		mids[mid] = true
	}
	for _, mid := range sortediter.Keys(mids) {
		simN, sockN := sim.Nodes[mid], sock.Nodes[mid]
		if simN == nil {
			simN = &NodeTranscript{}
		}
		if sockN == nil {
			sockN = &NodeTranscript{}
		}
		reports = append(reports, compareNode(mid, simN, sockN, skip)...)
	}
	return reports
}

func compareNode(mid soda.MID, sim, sock *NodeTranscript, skip map[soda.Pattern]bool) []string {
	var reports []string
	// Lifecycle: exact order.
	for i := 0; i < len(sim.Lifecycle) || i < len(sock.Lifecycle); i++ {
		get := func(l []string) string {
			if i < len(l) {
				return l[i]
			}
			return "(end)"
		}
		if get(sim.Lifecycle) != get(sock.Lifecycle) {
			reports = append(reports, fmt.Sprintf(
				"node %d: lifecycle diverges at position %d: sim %q vs socket %q\n    sim:    %s\n    socket: %s",
				mid, i, get(sim.Lifecycle), get(sock.Lifecycle),
				strings.Join(sim.Lifecycle, "; "), strings.Join(sock.Lifecycle, "; ")))
			break
		}
	}
	filter := func(cs []Chain, broadcast bool) []Chain {
		var out []Chain
		for _, c := range cs {
			if c.Broadcast == broadcast && !skip[c.Pattern] {
				out = append(out, c)
			}
		}
		return out
	}
	// Unicast chains: multiset equality of contents.
	simU, sockU := filter(sim.Chains, false), filter(sock.Chains, false)
	counts := make(map[string]int)
	for _, c := range simU {
		counts[c.Content()]++
	}
	for _, c := range sockU {
		counts[c.Content()]--
	}
	for _, c := range simU {
		if counts[c.Content()] > 0 {
			counts[c.Content()] = 0 // report each content once
			reports = append(reports, fmt.Sprintf("node %d: sim-only request chain\n%s",
				mid, chainDiff("sim", c, sockU)))
		}
	}
	for _, c := range sockU {
		if counts[c.Content()] < 0 {
			counts[c.Content()] = 0
			reports = append(reports, fmt.Sprintf("node %d: socket-only request chain\n%s",
				mid, chainDiff("socket", c, simU)))
		}
	}
	// Broadcast chains: distinct contents must match (retry counts free).
	distinct := func(cs []Chain) []string {
		seen := make(map[string]bool)
		var out []string
		for _, c := range cs {
			if !seen[c.Content()] {
				seen[c.Content()] = true
				out = append(out, c.Content())
			}
		}
		sort.Strings(out)
		return out
	}
	simB, sockB := distinct(filter(sim.Chains, true)), distinct(filter(sock.Chains, true))
	// A content on one side only is still admissible when it is a prefix
	// of a content on the other: each run stops the moment the scenario
	// completes, so a final DISCOVER retry can be caught mid-flight.
	admitted := func(content string, others []string) bool {
		for _, o := range others {
			if o == content || strings.HasPrefix(o, content) {
				return true
			}
		}
		return false
	}
	for _, c := range simB {
		if !admitted(c, sockB) {
			reports = append(reports, fmt.Sprintf(
				"node %d: sim-only DISCOVER chain [%s]\n    socket has: %v", mid, c, sockB))
		}
	}
	for _, c := range sockB {
		if !admitted(c, simB) {
			reports = append(reports, fmt.Sprintf(
				"node %d: socket-only DISCOVER chain [%s]\n    sim has: %v", mid, c, simB))
		}
	}
	return reports
}
