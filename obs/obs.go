// Package obs is the observability subsystem of the SODA reproduction: it
// turns the kernel, transport and delivery events of a network's event
// stream (soda.Network.Subscribe) into
//
//   - causal spans — one per REQUEST lifecycle, with per-hop virtual-µs
//     timestamps (issue → transport delivery → wire arrival → handler
//     arrival → accept → completion/cancel) — assembled by a Tracer and
//     exportable as Chrome trace-event JSON (loadable in chrome://tracing
//     or https://ui.perfetto.dev);
//   - per-primitive latency histograms (REQUEST / ACCEPT / CANCEL /
//     DISCOVER) and per-node protocol counters, kept by a Registry; and
//   - machine-readable run profiles (Profile) reproducing the categories
//     of the paper's "Breakdown of Communications Overhead" table, which
//     cmd/sodabench writes as BENCH_*.json.
//
// Everything here is observation only: the streams it consumes are emitted
// synchronously by the simulation and must never change behavior. With no
// tracer or registry attached no event is even built, so a run with
// observability disabled is bit-identical to one that never linked this
// package (the chaos trace-hash determinism tests rely on this). All
// timestamps are virtual time from the deterministic scheduler, so two
// runs with the same seed and fault plan export byte-identical traces.
package obs

import (
	"time"
)

// usec converts a virtual duration to whole microseconds (the unit of every
// exported figure; the paper's tables are in ms with one decimal).
func usec(d time.Duration) int64 { return int64(d / time.Microsecond) }

// tsUS converts a virtual instant to fractional microseconds for the Chrome
// trace-event "ts" field.
func tsUS(d time.Duration) float64 { return float64(d) / 1e3 }
