// Scaling-curve measurement: the internetwork experiment of DESIGN.md §13
// (EXPERIMENTS.md E8). For each node count the same discovery-heavy
// workload runs twice — once on a single flat bus, once on a
// gateway-segmented star — and the row records boot-to-first-service time,
// DISCOVER convergence (servers found within one discover window), and the
// REQUEST round trip to a far server. The flat network's per-MID reply
// stagger (§5.3) overruns the discover window as MIDs grow, so the
// per-segment DISCOVER proxy cache wins the convergence column at scale;
// the gateway hops cost a bounded RTT factor in exchange.
package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"soda"
	"soda/internal/golden"
)

// scaleSegmentSize is the target number of nodes per bus segment in the
// segmented half of each row (the curve picks max(2, ceil(n/size))
// segments).
const scaleSegmentSize = 256

// scaleServers bounds the number of advertising servers per row.
const scaleServers = 32

// scaleCell is one network mode (flat or segmented) of one row. All times
// are deterministic virtual microseconds; -1 marks a phase that did not
// complete.
type scaleCell struct {
	// bootUS is boot-to-first-service: virtual time from network start
	// until the driver's first DISCOVER returned a server.
	bootUS int64
	// discovered is how many of the row's servers one full discover
	// window collected; discoverUS is that window's virtual duration.
	// Together they are the convergence measure: the window length is
	// fixed, so whoever hears more servers in it converges faster.
	discovered int
	discoverUS int64
	// rttUS is the best-of-three blocking EXCHANGE round trip against the
	// highest-MID discovered server (on the segmented network that is
	// always a cross-segment path from the asker's segment).
	rttUS int64
	// framesSent totals bus transmissions over the whole run (every
	// segment summed); the broadcast-suppression win shows up here.
	framesSent uint64
	// proxyReplies is the gateways' DISCOVER proxy answers; zero on the
	// flat bus.
	proxyReplies uint64
}

// scaleSegments picks the segmented half's segment count for n nodes.
func scaleSegments(n int) int {
	s := (n + scaleSegmentSize - 1) / scaleSegmentSize
	if s < 2 {
		s = 2
	}
	return s
}

// scaleServerMIDs spreads the advertising servers across the MID space
// 1..n-1 (MID n is the asker), so on the segmented network most of them
// are remote to the asker and on the flat network their reply stagger
// spans the whole MID range.
func scaleServerMIDs(n int) []soda.MID {
	k := scaleServers
	if n-1 < k {
		k = n - 1
	}
	mids := make([]soda.MID, 0, k)
	seen := soda.MID(0)
	for i := 0; i < k; i++ {
		mid := soda.MID(1 + i*(n-1)/k)
		if mid <= seen { // collisions only when n-1 is near k
			mid = seen + 1
		}
		seen = mid
		mids = append(mids, mid)
	}
	return mids
}

// scaleRun tunes one workload execution beyond the node/segment shape:
// an explicit gateway ForwardDelay (the conservative lookahead bound),
// an intra-run parallel worker count, and an optional trace sink (the
// byte-identity witness for the parallel cells).
type scaleRun struct {
	forward time.Duration
	workers int
	trace   io.Writer
}

// runScaleCell runs the workload once; segments <= 1 means the flat bus.
func runScaleCell(n, segments int, r scaleRun) scaleCell {
	opts := []soda.Option{soda.WithSeed(1)}
	if segments > 1 {
		topo := soda.StarTopology(segments)
		segSize := (n + segments - 1) / segments
		topo.Locate = func(mid soda.MID) int { return (int(mid) - 1) / segSize }
		topo.ForwardDelay = r.forward
		opts = append(opts, soda.WithTopology(topo))
	}
	if r.workers > 1 {
		opts = append(opts, soda.WithParallelSim(r.workers))
	}
	nw := soda.NewNetwork(opts...)
	nw.Trace(r.trace)

	pattern := soda.WellKnownPattern(0o1513)
	servers := scaleServerMIDs(n)
	isServer := make([]bool, n+1)
	for _, mid := range servers {
		isServer[mid] = true
	}
	asker := soda.MID(n)

	nw.Register("srv", soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			if err := c.Advertise(pattern); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind == soda.EventRequestArrival && ev.Pattern == pattern {
				c.AcceptCurrentExchange(soda.OK, []byte("pong"), ev.PutSize)
			}
		},
	})
	// Bystanders idle through the measurement so every DISCOVER broadcast
	// pays the full per-receiver delivery cost of an n-node bus.
	nw.Register("idle", soda.Program{
		Task: func(c *soda.Client) { c.Hold(time.Second) },
	})

	cell := scaleCell{bootUS: -1, discoverUS: -1, rttUS: -1}
	nw.Register("driver", soda.Program{
		Task: func(c *soda.Client) {
			// Boot-to-first-service: one DISCOVER from network start.
			if _, ok := c.Discover(pattern); !ok {
				return
			}
			cell.bootUS = int64(c.Now() / time.Microsecond)
			// Convergence: one full discover window, counted.
			start := c.Now()
			found := c.DiscoverAll(pattern, len(servers))
			cell.discoverUS = int64((c.Now() - start) / time.Microsecond)
			cell.discovered = len(found)
			if len(found) == 0 {
				return
			}
			// Far-server round trip: the highest-MID server heard. On the
			// segmented star the asker is alone on the last segment, so
			// this is always a cross-segment path.
			target := found[0]
			for _, mid := range found {
				if mid > target {
					target = mid
				}
			}
			sig := soda.ServerSig{MID: target, Pattern: pattern}
			best := time.Duration(-1)
			for i := 0; i < 3; i++ {
				s := c.Now()
				if res := c.BExchange(sig, soda.OK, []byte("ping"), 16); res.Status != soda.StatusSuccess {
					return
				}
				if d := c.Now() - s; best < 0 || d < best {
					best = d
				}
			}
			cell.rttUS = int64(best / time.Microsecond)
		},
	})

	for mid := soda.MID(1); int(mid) <= n; mid++ {
		nw.MustAddNode(mid)
		switch {
		case mid == asker:
			nw.MustBoot(mid, "driver")
		case isServer[mid]:
			nw.MustBoot(mid, "srv")
		default:
			nw.MustBoot(mid, "idle")
		}
	}
	if err := nw.Run(2 * time.Second); err != nil {
		return scaleCell{bootUS: -1, discoverUS: -1, rttUS: -1}
	}
	cell.framesSent = nw.Stats().FramesSent
	cell.proxyReplies = nw.InternetStats().ProxyReplies
	return cell
}

// measureScaleRow runs the flat and the segmented half of one node count.
func measureScaleRow(n int) (flat, seg scaleCell) {
	return runScaleCell(n, 1, scaleRun{}), runScaleCell(n, scaleSegments(n), scaleRun{})
}

// checkScaleTrace runs the segmented workload of n nodes under an explicit
// 500 µs ForwardDelay lookahead (the default segmented cell forwards
// immediately, which is not shardable), sequentially and with workers: the
// first frame trace must equal its golden, and the second the first.
func checkScaleTrace(t *testing.T, n, workers int) {
	var seq, par strings.Builder
	runScaleCell(n, scaleSegments(n), scaleRun{forward: 500 * time.Microsecond, trace: &seq})
	runScaleCell(n, scaleSegments(n), scaleRun{forward: 500 * time.Microsecond, workers: workers, trace: &par})
	golden.Check(t, fmt.Sprintf("scale_n%d", n), seq.String())
	if d := golden.Diff(seq.String(), par.String()); d != "" {
		t.Errorf("n=%d: the %d-worker trace departs from the sequential one at %s", n, workers, d)
	}
}

// TestMeasureScaleRowSmall runs the smallest row end to end: both halves
// must complete every phase and discover every server, deterministically.
func TestMeasureScaleRowSmall(t *testing.T) {
	if segs, srv := scaleSegments(8), len(scaleServerMIDs(8)); segs != 2 || srv != 7 {
		t.Fatalf("row shape: %d segments and %d servers, want 2 and 7", segs, srv)
	}
	flat, seg := measureScaleRow(8)
	for _, cell := range []struct {
		name string
		c    scaleCell
	}{{"flat", flat}, {"segmented", seg}} {
		if cell.c.bootUS <= 0 || cell.c.rttUS <= 0 || cell.c.discoverUS <= 0 {
			t.Errorf("%s: incomplete phases: %+v", cell.name, cell.c)
		}
		if cell.c.discovered != 7 {
			t.Errorf("%s: discovered %d/7 servers", cell.name, cell.c.discovered)
		}
	}
	if seg.proxyReplies == 0 {
		t.Error("segmented half never engaged the DISCOVER proxy")
	}
	if flat2, seg2 := measureScaleRow(8); flat2 != flat || seg2 != seg {
		t.Fatalf("scale row not deterministic:\n%+v %+v\n%+v %+v", flat, seg, flat2, seg2)
	}
}

// TestMeasureScaleParSmall runs the parallel-identity cell at the smallest
// node count with two workers: the parallel half must reproduce the
// sequential trace byte for byte, and that trace is E9's pinned one.
func TestMeasureScaleParSmall(t *testing.T) {
	checkScaleTrace(t, 8, 2)
}

// TestScaleCurveGates is the DESIGN.md §13 gate and the E8 table: at
// n ∈ {8, 64, 512, 4096, 10000} every phase of both halves completes (the
// 10k-node boot included), the DISCOVER proxy cache hears more servers
// than the flat broadcast at n >= 512, and the cross-segment round trip
// stays within 5x of the flat bus.
func TestScaleCurveGates(t *testing.T) {
	nodes := []int{8, 64, 512, 4096, 10000}
	t.Logf("%5s %4s %3s | %-11s | %-11s | %-11s | %-9s", "nodes", "segs", "srv",
		"boot us", "discovered", "rtt us", "frames")
	for _, n := range nodes {
		flat, seg := measureScaleRow(n)
		t.Logf("%5d %4d %3d | %5d %5d | %5d %5d | %5d %5d | %4d %4d", n, scaleSegments(n),
			len(scaleServerMIDs(n)), flat.bootUS, seg.bootUS, flat.discovered, seg.discovered,
			flat.rttUS, seg.rttUS, flat.framesSent, seg.framesSent)
		for _, c := range []scaleCell{flat, seg} {
			if c.bootUS < 0 || c.discoverUS < 0 || c.rttUS <= 0 {
				t.Errorf("n=%d: a phase did not complete: %+v", n, c)
			}
		}
		if n >= 512 && seg.discovered <= flat.discovered {
			t.Errorf("n=%d: DISCOVER cache found %d servers vs the flat broadcast's %d", n, seg.discovered, flat.discovered)
		}
		if ratio := float64(seg.rttUS) / float64(flat.rttUS); ratio > 5.0 {
			t.Errorf("n=%d: cross-segment RTT %d us is %.2fx the flat bus's %d us, ceiling 5x", n, seg.rttUS, ratio, flat.rttUS)
		}
	}

	// DESIGN.md §15: the segmented workload under WithParallelSim(8)
	// produces the sequential trace byte for byte at every node count.
	t.Run("parallel identity", func(t *testing.T) {
		for _, n := range nodes {
			checkScaleTrace(t, n, 8)
		}
	})
}
