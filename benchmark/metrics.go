package main

import (
	"soda"
	"soda/internal/bus"
	"soda/internal/frame"
)

// metricDef declares one end-to-end metric. BENCHMARK.json carries the same
// table; TestDeclarationsMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the baseline median it may get worse by
}

// endToEnd lists what a user of the system waits for or pays. Wall-clock
// metrics are host time; the virt_* metrics and frames_per_op are outputs of
// the simulated model and repeat exactly for a given seed on every
// simulated workload (see exactOn).
//
// A bound is the share of the baseline by which a metric may get worse, and
// it has to hold for every workload and across seeds. Host-time metrics get
// the widest bound a benchmark may declare: on the 2-core virtual machine
// this was written on, the quartiles of ten runs lie up to 10% apart, and
// twice that when a neighbour is busy. The others are bounded by how much
// they differ from seed to seed on the workload where they differ most
// (rtt_small's payload sizes, socket_rtt's wall-paced clock); run both
// sides on one seed and -compare holds the simulated ones to equality.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"virt_us_per_op", "virt_us", "lower", 0.15},
	{"virt_p99_us", "virt_us", "lower", 0.15},
	{"frames_per_op", "frames", "lower", 0.10},
	{"allocs_per_op", "allocs", "lower", 0.10},
	{"bytes_per_op", "B", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// exactOn reports whether metric is an output of the deterministic
// simulation on workload: two runs with the same seed must then agree to
// the last digit, and -compare treats any difference as a regression.
func exactOn(metric, workload string) bool {
	switch metric {
	case "virt_us_per_op", "virt_p99_us", "frames_per_op":
		return workload != "socket_rtt"
	}
	return false
}

// layerDef declares one per-layer metric of the traced run.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer is the ladder: each layer is this repository's package of that
// name, driven through its public functions with nothing above it, plus the
// counters that layer keeps during the traced workload. README.md says
// which end-to-end metric each of them should move, and on which workload.
var perLayer = []layerDef{
	{"frame.encode_ns", "ns", "lower"},
	{"frame.decode_ns", "ns", "lower"},
	{"frame.encode_allocs", "allocs", "lower"},
	{"frame.decode_allocs", "allocs", "lower"},
	{"frame.bulk_encode_ns", "ns", "lower"},
	{"frame.bulk_decode_ns", "ns", "lower"},

	{"sim.event_ns", "ns", "lower"},
	{"sim.event_allocs", "allocs", "lower"},
	{"sim.proc_switch_ns", "ns", "lower"},
	{"sim.par_windows", "count", "lower"},
	{"sim.par_events_per_window", "count", "higher"},
	{"sim.par_exclusive_steps", "count", "lower"},
	{"sim.par_staged", "count", "lower"},
	{"sim.par_gated_ops", "count", "lower"},

	{"bus.send_deliver_ns", "ns", "lower"},
	{"bus.send_allocs", "allocs", "lower"},
	{"bus.broadcast_deliver_ns", "ns", "lower"},
	{"bus.frames_sent", "count", "lower"},
	{"bus.frames_lost", "count", "lower"},
	{"bus.bytes_sent", "B", "lower"},

	{"deltat.msg_ns", "ns", "lower"},
	{"deltat.msg_allocs", "allocs", "lower"},
	{"deltat.msg_virt_us", "virt_us", "lower"},
	{"deltat.bulk_msg_ns", "ns", "lower"},
	{"deltat.bulk_msg_allocs", "allocs", "lower"},
	{"deltat.bulk_msg_virt_us", "virt_us", "lower"},
	{"deltat.retransmissions", "count", "lower"},
	{"deltat.frag_retransmits", "count", "lower"},
	{"deltat.selective_retransmits", "count", "lower"},
	{"deltat.sack_blocks", "count", "lower"},
	{"deltat.window_decreases", "count", "lower"},
	{"deltat.piggybacked_acks", "count", "higher"},
	{"deltat.peer_dead_timeouts", "count", "lower"},
	{"deltat.useful_frame_ratio", "ratio", "higher"},

	{"core.rtt_ns", "ns", "lower"},
	{"core.rtt_self_ns", "ns", "lower"},
	{"core.accept_call_ns", "ns", "lower"},
	{"core.boot_ns", "ns", "lower"},
	{"core.boot_allocs", "allocs", "lower"},
	{"core.boot_bytes", "B", "lower"},

	{"internet.forward_ns", "ns", "lower"},
	{"internet.forward_allocs", "allocs", "lower"},
	{"internet.frames_forwarded", "count", "lower"},
	{"internet.broadcasts_relayed", "count", "lower"},
	{"internet.discover_hit_ratio", "ratio", "higher"},
	{"internet.ttl_drops", "count", "lower"},
	{"internet.unroutable_drops", "count", "lower"},

	{"netx.framer_write_ns", "ns", "lower"},
	{"netx.framer_read_ns", "ns", "lower"},
	{"netx.framer_allocs", "allocs", "lower"},
	{"netx.frame_rtt_p50_us", "us", "lower"},
	{"netx.frame_rtt_p99_us", "us", "lower"},
	{"netx.dial_ms", "ms", "lower"},
	{"netx.frames_dropped", "count", "lower"},

	{"faults.plan_gen_ns", "ns", "lower"},
	{"faults.check_overhead_ratio", "ratio", "lower"},
	{"sweep.run_ns", "ns", "lower"},
	{"sweep.par_efficiency", "ratio", "higher"},

	{"obs.enabled_overhead_ratio", "ratio", "lower"},
	{"obs.virt_conn_timers_us", "virt_us", "lower"},
	{"obs.virt_retrans_timers_us", "virt_us", "lower"},
	{"obs.virt_ctx_switch_us", "virt_us", "lower"},
	{"obs.virt_transmission_us", "virt_us", "lower"},
	{"obs.virt_client_overhead_us", "virt_us", "lower"},
	{"obs.virt_protocol_us", "virt_us", "lower"},
	{"obs.virt_copies_us", "virt_us", "lower"},

	{"trace.overhead_ratio", "ratio", "higher"},
}

// workloadDef names a workload and records why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"rtt_small", "one closed-loop client, small EXCHANGEs on a clean flat bus: the hot path of every sweep (frame codec, stop-and-wait deltat, core dispatch, sim switching); window, internet, netx idle"},
	{"bulk_lossy", "three 2000 B PUTs in flight, window 8, 5% loss: fragmentation, SACK, AIMD and retransmit timers dominate; uses deltat the opposite way to rtt_small"},
	{"segments_seq", "8 segments x 32 nodes, 224 scripted closed-loop clients, 10% cross-segment: timer wheel, process switching, bus contention and gateways in front; setup_s shows 256-node boot and DISCOVER"},
	{"segments_par", "the inputs of segments_seq under WithParallelSim(nproc): only the coordinator differs, so its ops_per_s over segments_seq's is the number the keep-or-delete decision needs"},
	{"chaos_sweep", "sweep.Run of the fileserver scenario over seeds x 8 fault plans x {3,5} nodes with checkers on: thousands of short runs make boot, plan generation, checking and allocation volume the cost"},
	{"socket_rtt", "the rtt_small exchange between two socket networks over host loopback TCP: the median is the model's wall-paced cost, the tail is what netx can move"},
}

// The helpers below turn the program's public counters into per-layer
// metrics of one round.

func busCounters(m map[string]float64, st bus.Stats) {
	m["bus.frames_sent"] = float64(st.FramesSent)
	m["bus.frames_lost"] = float64(st.FramesLost)
	m["bus.bytes_sent"] = float64(st.BytesSent)
	m["deltat.retransmissions"] = float64(st.Retransmissions)
	m["deltat.frag_retransmits"] = float64(st.FragmentRetransmits)
	m["deltat.selective_retransmits"] = float64(st.SelectiveRetransmits)
	m["deltat.sack_blocks"] = float64(st.SackBlocksSent)
	m["deltat.window_decreases"] = float64(st.WindowDecreases)
	m["deltat.piggybacked_acks"] = float64(st.PiggybackedAcks)
	m["deltat.peer_dead_timeouts"] = float64(st.PeerDeadTimeouts)
	if st.FramesSent > 0 {
		m["deltat.useful_frame_ratio"] = 1 - float64(st.Retransmissions+st.FragmentRetransmits)/float64(st.FramesSent)
	}
}

// internetCounters reports forwarding for the timed section and the
// DISCOVER directory over set-up and timed section together: clients
// DISCOVER once, at boot.
func internetCounters(m map[string]float64, timed, setup soda.InternetStats) {
	if timed == (soda.InternetStats{}) && setup == (soda.InternetStats{}) {
		return // flat bus: no gateway layer
	}
	m["internet.frames_forwarded"] = float64(timed.FramesForwarded)
	m["internet.broadcasts_relayed"] = float64(timed.BroadcastsRelayed + setup.BroadcastsRelayed)
	m["internet.ttl_drops"] = float64(timed.TTLDrops + setup.TTLDrops)
	m["internet.unroutable_drops"] = float64(timed.UnroutableDrops + setup.UnroutableDrops)
	hits := timed.DiscoverHits + setup.DiscoverHits
	if asked := hits + timed.DiscoverMisses + setup.DiscoverMisses; asked > 0 {
		m["internet.discover_hit_ratio"] = float64(hits) / float64(asked)
	}
}

// parCounters reports the coordinator's work over the whole round; ParStats
// has no reset.
func parCounters(m map[string]float64, par soda.ParStats) {
	m["sim.par_windows"] = float64(par.Windows)
	if par.Windows > 0 {
		m["sim.par_events_per_window"] = float64(par.Committed) / float64(par.Windows)
	}
	m["sim.par_exclusive_steps"] = float64(par.ExclusiveSteps)
	m["sim.par_staged"] = float64(par.Staged)
	m["sim.par_gated_ops"] = float64(par.GatedOps)
}

// costCounters splits the virtual time of one operation on a two-machine
// network into the paper's Table 6.1 buckets, from the kernels' own cost
// totals: the model-side attribution that sits beside the host-side ladder.
// It also leaves core.messages_per_op, the DATA frames of one operation, for
// the ladder's core rung to weigh deltat.msg_ns with.
func costCounters(m map[string]float64, nw *soda.Network, st bus.Stats, ops int) {
	if ops == 0 {
		return
	}
	m["core.messages_per_op"] = float64(st.ByKind[frame.TransportData]) / float64(ops)
	var conn, retrans, protocol, copies, ctx, client float64
	for _, mid := range []soda.MID{1, 2} {
		tt, ct := nw.Node(mid).TransportTotals(), nw.Node(mid).Totals()
		conn += float64(tt.ConnTimer)
		retrans += float64(tt.RetransTimer)
		protocol += float64(tt.Protocol)
		copies += float64(tt.Copy)
		ctx += float64(ct.CtxSwitch)
		client += float64(ct.ClientOverhead)
	}
	perOpUS := func(ns float64) float64 { return ns / 1e3 / float64(ops) }
	m["obs.virt_conn_timers_us"] = perOpUS(conn)
	m["obs.virt_retrans_timers_us"] = perOpUS(retrans)
	m["obs.virt_protocol_us"] = perOpUS(protocol)
	m["obs.virt_copies_us"] = perOpUS(copies)
	m["obs.virt_ctx_switch_us"] = perOpUS(ctx)
	m["obs.virt_client_overhead_us"] = perOpUS(client)
	// Transmission time follows from the bytes on the 1 Mbit/s line.
	m["obs.virt_transmission_us"] = float64(st.BytesSent) * 8 / float64(ops)
}
