package obs

import (
	"fmt"
	"io"

	"soda/internal/core"
	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
)

// Primitive names used as histogram keys. Latencies are measured in whole
// virtual microseconds:
//
//	REQUEST  — issue to completion, at the requester;
//	DISCOVER — same, for broadcast-addressed requests;
//	ACCEPT   — handler arrival to accept resolution, at the server;
//	CANCEL   — issue to cancelled-completion, at the requester.
const (
	PrimRequest  = "REQUEST"
	PrimAccept   = "ACCEPT"
	PrimCancel   = "CANCEL"
	PrimDiscover = "DISCOVER"
)

// NodeCounters tallies per-node protocol activity from both observer
// streams: kernel request-lifecycle events and transport machinery events.
type NodeCounters struct {
	Issues         uint64 `json:"issues"`
	Delivered      uint64 `json:"delivered"`
	Arrivals       uint64 `json:"arrivals"`
	Completions    uint64 `json:"completions"`
	Cancellations  uint64 `json:"cancellations"`
	Accepts        uint64 `json:"accepts"`
	AcceptFailures uint64 `json:"accept_failures"`
	Crashes        uint64 `json:"crashes"`
	Dies           uint64 `json:"dies"`
	Reboots        uint64 `json:"reboots"`
	// CompletionsByStatus splits Completions by core.Status name.
	CompletionsByStatus map[string]uint64 `json:"completions_by_status,omitempty"`

	// Transport machinery (deltat observer stream).
	Retransmits      uint64 `json:"retransmits"`
	AcksTx           uint64 `json:"acks_tx"`
	AcksRx           uint64 `json:"acks_rx"`
	PiggybackAcks    uint64 `json:"piggyback_acks"`
	PeerDeadTimeouts uint64 `json:"peer_dead_timeouts"`
	BusyRetries      uint64 `json:"busy_retries"`
	ConnOpens        uint64 `json:"conn_opens"`
	ConnExpires      uint64 `json:"conn_expires"`
	ConnCloses       uint64 `json:"conn_closes"`
	// Windowed-transport machinery (Config.Window > 1; zero otherwise).
	WindowFills     uint64 `json:"window_fills,omitempty"`
	CumulativeAcks  uint64 `json:"cumulative_acks,omitempty"`
	FragRetransmits uint64 `json:"frag_retransmits,omitempty"`
	// Selective-repeat machinery (DESIGN.md §12).
	SelectiveRetransmits uint64 `json:"selective_retransmits,omitempty"`
	SackAcks             uint64 `json:"sack_acks,omitempty"`
	WindowIncreases      uint64 `json:"window_increases,omitempty"`
	WindowDecreases      uint64 `json:"window_decreases,omitempty"`
}

// HistSummary is the exported digest of one primitive's latency histogram,
// in whole virtual microseconds.
type HistSummary struct {
	Count  uint64 `json:"count"`
	MinUS  int64  `json:"min_us"`
	MeanUS int64  `json:"mean_us"`
	P50US  int64  `json:"p50_us"`
	P90US  int64  `json:"p90_us"`
	P99US  int64  `json:"p99_us"`
	MaxUS  int64  `json:"max_us"`
}

// reqTimes is the per-request state the registry keeps to turn event pairs
// into latencies. Records are retained for the whole run (a few dozen bytes
// per request): the server-side accept outcome can resolve after the
// requester-side completion, so records cannot be reclaimed at completion.
type reqTimes struct {
	issue      sim.Time
	arrival    sim.Time
	hasArrival bool
	discover   bool
	done       bool // completion or cancellation recorded
	accepted   bool // accept latency recorded
}

// Registry accumulates per-primitive latency histograms and per-node
// counters from the kernel and transport observer streams. Feed it through
// soda.WithMetrics, or call Observe/ObserveTransport directly. It is
// observation only and purely deterministic: the same event stream always
// yields the same state.
type Registry struct {
	open  map[frame.RequesterSig]*reqTimes
	hists map[string]*Histogram
	nodes map[frame.MID]*NodeCounters
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		open:  make(map[frame.RequesterSig]*reqTimes),
		hists: make(map[string]*Histogram),
		nodes: make(map[frame.MID]*NodeCounters),
	}
}

// Histogram returns the named primitive's histogram, creating it if absent.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Node returns the counters for mid, creating them if absent.
func (r *Registry) Node(mid frame.MID) *NodeCounters {
	nc, ok := r.nodes[mid]
	if !ok {
		nc = &NodeCounters{CompletionsByStatus: make(map[string]uint64)}
		r.nodes[mid] = nc
	}
	return nc
}

// Observe consumes one kernel observer event.
func (r *Registry) Observe(ev core.ObsEvent) {
	nc := r.Node(ev.Node)
	switch ev.Kind {
	case core.ObsIssue:
		nc.Issues++
		r.open[ev.Sig] = &reqTimes{issue: ev.At, discover: ev.Dst.MID == frame.BroadcastMID}
	case core.ObsDelivered:
		nc.Delivered++
	case core.ObsArrival:
		nc.Arrivals++
		if t := r.open[ev.Sig]; t != nil && !t.hasArrival {
			t.arrival = ev.At
			t.hasArrival = true
		}
	case core.ObsComplete:
		nc.Completions++
		nc.CompletionsByStatus[ev.Status.String()]++
		if t := r.open[ev.Sig]; t != nil && !t.done {
			t.done = true
			name := PrimRequest
			if t.discover {
				name = PrimDiscover
			}
			r.Histogram(name).Record(usec(ev.At - t.issue))
		}
	case core.ObsCancelled:
		nc.Cancellations++
		if t := r.open[ev.Sig]; t != nil && !t.done {
			t.done = true
			r.Histogram(PrimCancel).Record(usec(ev.At - t.issue))
		}
	case core.ObsAccept:
		nc.Accepts++
		if ev.Accept != core.AcceptSuccess {
			nc.AcceptFailures++
			return
		}
		// Accept latency is server-side: handler arrival to accept
		// resolution. DISCOVER arrivals at many nodes share one record;
		// only the first successful accept is measured.
		if t := r.open[ev.Sig]; t != nil && t.hasArrival && !t.accepted {
			t.accepted = true
			r.Histogram(PrimAccept).Record(usec(ev.At - t.arrival))
		}
	case core.ObsCrash:
		nc.Crashes++
	case core.ObsDie:
		nc.Dies++
	case core.ObsReboot:
		nc.Reboots++
	}
}

// ObserveTransport consumes one transport observer event.
func (r *Registry) ObserveTransport(ev deltat.Event) {
	nc := r.Node(ev.Node)
	switch ev.Kind {
	case deltat.EvRetransmit:
		nc.Retransmits++
	case deltat.EvAckTx:
		nc.AcksTx++
	case deltat.EvAckRx:
		nc.AcksRx++
	case deltat.EvPiggybackAck:
		nc.PiggybackAcks++
	case deltat.EvPeerDead:
		nc.PeerDeadTimeouts++
	case deltat.EvBusyRetry:
		nc.BusyRetries++
	case deltat.EvConnOpen:
		nc.ConnOpens++
	case deltat.EvConnExpire:
		nc.ConnExpires++
	case deltat.EvConnClose:
		nc.ConnCloses++
	case deltat.EvWindowFill:
		nc.WindowFills++
	case deltat.EvCumAck:
		nc.CumulativeAcks++
	case deltat.EvFragRetransmit:
		nc.FragRetransmits++
	case deltat.EvSelectiveRetransmit:
		nc.FragRetransmits++
		nc.SelectiveRetransmits++
	case deltat.EvSackTx:
		nc.SackAcks++
	case deltat.EvWindowIncrease:
		nc.WindowIncreases++
	case deltat.EvWindowDecrease:
		nc.WindowDecreases++
	}
}

// Summary digests one primitive's histogram (zero summary if never
// recorded).
func (r *Registry) Summary(name string) HistSummary {
	h, ok := r.hists[name]
	if !ok || h.Count() == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count:  h.Count(),
		MinUS:  h.Min(),
		MeanUS: h.Mean(),
		P50US:  h.Quantile(0.50),
		P90US:  h.Quantile(0.90),
		P99US:  h.Quantile(0.99),
		MaxUS:  h.Max(),
	}
}

// Summaries digests every non-empty histogram, keyed by primitive name.
func (r *Registry) Summaries() map[string]HistSummary {
	out := make(map[string]HistSummary, len(r.hists))
	//lint:allow mapiterorder (builds a map keyed the same way; order cannot leak)
	for name, h := range r.hists {
		if h.Count() > 0 {
			out[name] = r.Summary(name)
		}
	}
	return out
}

// Nodes returns the per-node counters keyed by decimal MID (a JSON-friendly
// map; encoding/json emits keys sorted, keeping exports deterministic).
func (r *Registry) Nodes() map[string]*NodeCounters {
	out := make(map[string]*NodeCounters, len(r.nodes))
	//lint:allow mapiterorder (map-to-map rekeying; encoding/json sorts keys on output)
	for mid, nc := range r.nodes {
		out[fmt.Sprintf("%d", mid)] = nc
	}
	return out
}

// OpenRequests reports how many observed requests never completed nor were
// cancelled (in flight at the end of the run, or orphaned by a crash).
func (r *Registry) OpenRequests() int {
	n := 0
	for _, t := range r.open {
		if !t.done {
			n++
		}
	}
	return n
}

// WriteSummary renders a human-readable digest: a latency table per
// primitive followed by per-node counters, in deterministic order.
func (r *Registry) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %10s %10s\n",
		"primitive", "count", "mean", "p50", "p90", "p99", "max")
	for _, name := range sortediter.Keys(r.hists) {
		if r.hists[name].Count() == 0 {
			continue
		}
		s := r.Summary(name)
		fmt.Fprintf(w, "%-10s %8d %8.1fms %8.1fms %8.1fms %8.1fms %8.1fms\n",
			name, s.Count,
			float64(s.MeanUS)/1000, float64(s.P50US)/1000,
			float64(s.P90US)/1000, float64(s.P99US)/1000,
			float64(s.MaxUS)/1000)
	}
	for _, mid := range sortediter.Keys(r.nodes) {
		nc := r.nodes[mid]
		fmt.Fprintf(w, "node %d: issues=%d completions=%d accepts=%d retransmits=%d acks_rx=%d piggyback=%d busy=%d peer_dead=%d\n",
			mid, nc.Issues, nc.Completions, nc.Accepts, nc.Retransmits,
			nc.AcksRx, nc.PiggybackAcks, nc.BusyRetries, nc.PeerDeadTimeouts)
	}
	if open := r.OpenRequests(); open > 0 {
		fmt.Fprintf(w, "open requests at end of run: %d\n", open)
	}
}
