// Hot-path allocation benchmarks. Unlike bench_test.go, which reports
// calibrated *virtual*-time metrics, these measure the simulator itself:
// wall ns/op, B/op and allocs/op for the costs that bound sweep and
// benchmark throughput — building+booting a network, one REQUEST round
// trip, one bulk PUT through the windowed transport, and a full chaos
// sweep. They are the profiling entry points (-benchmem, -cpuprofile); the
// numbers of record for the same paths come from benchmark/ (core.boot_*,
// rtt_small and bulk_lossy allocs_per_op, chaos_sweep), which is re-derived
// on every change. TestRequestRoundTripAllocBudget, TestBulkPutAllocBudget,
// TestSocketRoundTripAllocBudget and TestChaosRunAllocBudget are the tier-1
// checks among them: they hold the allocation counts of a round trip, of a
// bulk PUT, of a round trip over loopback TCP and of a checked chaos sweep.
package soda_test

import (
	"runtime"
	"testing"
	"time"

	"soda"
	"soda/sweep"
)

var hotPattern = soda.WellKnownPattern(0o7441)

// registerEcho installs a minimal echo service plus a client that performs
// rounds blocking EXCHANGEs against it, recording the last result in *last
// and, when after is non-nil, calling it with the number of rounds done
// after each one.
func registerEcho(nw *soda.Network, rounds int, last *soda.CallResult, after func(done int)) {
	nw.Register("server", soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			if err := c.Advertise(hotPattern); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind != soda.EventRequestArrival {
				return
			}
			c.AcceptCurrentExchange(soda.OK, []byte("reply-payload-64b"), ev.PutSize)
		},
	})
	nw.Register("client", soda.Program{
		Task: func(c *soda.Client) {
			srv, ok := c.Discover(hotPattern)
			if !ok {
				panic("benchmark: no server discovered")
			}
			put := []byte("request-payload-64-bytes-of-data")
			for i := 0; i < rounds; i++ {
				*last = c.BExchange(srv, soda.OK, put, 64)
				if after != nil {
					after(i + 1)
				}
			}
		},
	})
}

// BenchmarkBoot measures building a two-node network, booting a server and
// a client, running one DISCOVER + one EXCHANGE to completion, and closing
// the network — the fixed cost every sweep run pays around its workload.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var last soda.CallResult
		nw := soda.NewNetwork(soda.WithSeed(1))
		registerEcho(nw, 1, &last, nil)
		nw.MustAddNode(1)
		nw.MustAddNode(2)
		nw.MustBoot(1, "server")
		nw.MustBoot(2, "client")
		// The run terminates with the server parked in its handler and no
		// events left, which the kernel reports as a suspension; the real
		// success signal is the client's last result.
		_ = nw.RunToCompletion()
		if last.Status != soda.StatusSuccess {
			b.Fatalf("exchange failed: %v", last.Status)
		}
		_ = nw.Close() // ends the server parked in its handler
	}
}

// BenchmarkRequestRoundTrip measures one blocking EXCHANGE round trip on a
// warm two-node network: REQUEST out, ACCEPT back, both riding the Delta-t
// transport. allocs/op here is the per-transaction footprint of the whole
// frame/bus/scheduler stack (setup is amortized over b.N round trips): 13
// since the REQUEST's encoding became the kernel's copy of the put data, 14
// since timers, decoded transport headers and per-message records ride
// storage their owners reuse, 51 before that, and 73 before the timer wheel
// reused its slot arrays and finished handler processes handed their
// goroutines to the next one. What is left is what outlives the round
// trip: three transport frames and two kernel messages on the wire (the
// REQUEST's encoding doubling as the kernel's copy of the put data), the
// kernel's two request records, two decoded kernel messages and their data
// (a stop-and-wait delivery shares its wire buffer, so decoding copies),
// the handler's process record, and the echo handler's reply.
func BenchmarkRequestRoundTrip(b *testing.B) {
	b.ReportAllocs()
	var last soda.CallResult
	nw := soda.NewNetwork(soda.WithSeed(1))
	registerEcho(nw, b.N, &last, nil)
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "server")
	nw.MustBoot(2, "client")
	b.ResetTimer()
	_ = nw.RunToCompletion() // ends in expected server-parked suspension
	b.StopTimer()
	if last.Status != soda.StatusSuccess {
		b.Fatalf("exchange failed: %v", last.Status)
	}
	_ = nw.Close()
}

// BenchmarkChaosSweep measures a small sequential seed×plan sweep of the
// fileserver scenario under generated fault plans — the unit of work
// cmd/sodasweep shards across workers, and the engine behind the
// benchmark's chaos_sweep workload.
func BenchmarkChaosSweep(b *testing.B) {
	spec := sweep.Spec{
		Scenario:  "fileserver",
		Seeds:     []int64{1, 2},
		PlanSeeds: []int64{0, 7},
		Nodes:     []int{3},
		Horizon:   2 * time.Second,
		Checks:    true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Runs) != 4 {
			b.Fatalf("got %d runs, want 4", len(rep.Runs))
		}
	}
}

// roundTripAllocBudget is the steady-state allocation count of one blocking
// EXCHANGE round trip (BenchmarkRequestRoundTrip's allocs/op, and the
// benchmark's rtt_small allocs_per_op). The noalloc analyzer proves the path
// statically but trusts its amortized: and counted: suppressions; this is the
// dynamic check that holds them to the measured count. Lower it when a
// change removes allocations; never raise it to make a change fit.
const roundTripAllocBudget = 14

// TestRequestRoundTripAllocBudget measures the marginal allocations of one
// round trip: two otherwise identical runs differ only in their number of
// rounds, so network setup, boot and DISCOVER cancel out of the difference.
func TestRequestRoundTripAllocBudget(t *testing.T) {
	run := func(rounds int) func() {
		return func() {
			var last soda.CallResult
			nw := soda.NewNetwork(soda.WithSeed(1))
			registerEcho(nw, rounds, &last, nil)
			nw.MustAddNode(1)
			nw.MustAddNode(2)
			nw.MustBoot(1, "server")
			nw.MustBoot(2, "client")
			_ = nw.RunToCompletion() // ends in expected server-parked suspension
			if last.Status != soda.StatusSuccess {
				t.Fatalf("exchange failed: %v", last.Status)
			}
			_ = nw.Close()
		}
	}
	const few, many = 10, 210
	perRound := (testing.AllocsPerRun(3, run(many)) - testing.AllocsPerRun(3, run(few))) / (many - few)
	t.Logf("%.2f allocs per round trip (budget %d)", perRound, roundTripAllocBudget)
	if perRound > roundTripAllocBudget {
		t.Fatalf("one REQUEST round trip allocates %.2f times, over the budget of %d", perRound, roundTripAllocBudget)
	}
}

// socketRoundTripAllocBudget is the allocation count of one blocking
// EXCHANGE round trip between two socket networks over host loopback TCP
// (the benchmark's socket_rtt allocs_per_op): the simulated round trip plus
// one receive buffer per frame, with the driver napping on one reused timer,
// handler processes reusing pooled goroutines across driver steps, and each
// writer framing into one reused buffer. The count moves with the number of
// frames a round trip takes (3.1 to 3.3, as acknowledgements do or do not
// piggyback), so it is the highest of 23 runs of
// TestSocketRoundTripAllocBudget, 11 of them inside a loaded go test ./...
// (18.0 to 20.3; 55 before the driver stopped allocating), rounded up.
// Lower it when a change removes allocations; never raise it to make a
// change fit.
const socketRoundTripAllocBudget = 21

// TestSocketRoundTripAllocBudget runs the echo exchange between two socket
// networks on 127.0.0.1:0 and counts the process's allocations per timed
// round trip, from runtime.MemStats read by the client between rounds. Both
// drivers and every socket goroutine allocate inside the window, so the
// count covers the whole live path, not only the protocol.
func TestSocketRoundTripAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("opens sockets and paces round trips on the wall clock")
	}
	if raceEnabled {
		t.Skip("allocation counts drift under the race detector")
	}
	const warm, timed = 20, 100
	srv := soda.NewNetwork(soda.WithSeed(1), soda.WithSocketTransport("127.0.0.1:0"))
	cli := soda.NewNetwork(soda.WithSeed(2), soda.WithSocketTransport("127.0.0.1:0"))
	srv.SetSocketPeer(2, cli.SocketAddr())
	cli.SetSocketPeer(1, srv.SocketAddr())
	var (
		last          soda.CallResult
		before, after runtime.MemStats
		finished      bool
	)
	registerEcho(srv, 0, nil, nil)
	registerEcho(cli, warm+timed, &last, func(done int) {
		switch done {
		case warm:
			runtime.ReadMemStats(&before)
		case warm + timed:
			runtime.ReadMemStats(&after)
			finished = true
		}
	})
	srv.MustAddNode(1)
	srv.MustBoot(1, "server")
	cli.MustAddNode(2)
	cli.MustBoot(2, "client")
	srv.StartSocket(nil)
	cli.StartSocket(func() bool { return finished })
	cli.WaitSocket(time.Minute)
	if err := cli.Close(); err != nil {
		t.Errorf("client network: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("server network: %v", err)
	}
	if !finished {
		t.Fatalf("the client did not finish %d round trips", warm+timed)
	}
	if last.Status != soda.StatusSuccess {
		t.Fatalf("exchange failed: %v", last.Status)
	}
	perRound := float64(after.Mallocs-before.Mallocs) / timed
	t.Logf("%.2f allocs per socket round trip (budget %d)", perRound, socketRoundTripAllocBudget)
	if perRound > socketRoundTripAllocBudget {
		t.Fatalf("one socket round trip allocates %.2f times, over the budget of %d", perRound, socketRoundTripAllocBudget)
	}
}

// bulkPutSize, bulkWindow and bulkOutstanding shape the bulk PUT path: the
// benchmark's bulk_lossy workload on a clean bus.
const (
	bulkPutSize     = 2000 // 1000 PDP-11 words: two fragments
	bulkWindow      = 8
	bulkOutstanding = 3
)

// registerBulk installs a PUT sink plus a client that streams puts
// bulkPutSize-byte PUTs to it with bulkOutstanding in flight, counting
// successful completions in *done.
func registerBulk(nw *soda.Network, puts int, done *int) {
	nw.Register("server", soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			if err := c.Advertise(hotPattern); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind == soda.EventRequestArrival {
				c.AcceptCurrentPut(soda.OK, ev.PutSize)
			}
		},
	})
	nw.Register("client", soda.Program{
		Task: func(c *soda.Client) {
			srv, ok := c.Discover(hotPattern)
			if !ok {
				panic("benchmark: no server discovered")
			}
			put := make([]byte, bulkPutSize)
			inflight := 0
			completed := func(ev soda.Event) {
				inflight--
				if ev.Status == soda.StatusSuccess && ev.PutN == bulkPutSize {
					*done++
				}
			}
			for i := 0; i < puts; i++ {
				if inflight == bulkOutstanding {
					c.WaitUntil(func() bool { return inflight < bulkOutstanding })
				}
				tid, err := c.Put(srv, soda.OK, put)
				if err != nil {
					panic(err)
				}
				inflight++
				c.OnCompletion(tid, completed)
			}
			c.WaitUntil(func() bool { return inflight == 0 })
		},
	})
}

// runBulk builds a clean two-node network with a windowed transport, runs
// puts bulk PUTs to completion and reports how many succeeded.
func runBulk(puts int) int {
	done := 0
	nw := soda.NewNetwork(soda.WithSeed(1), soda.WithPipelined(true), soda.WithTransportWindow(bulkWindow))
	registerBulk(nw, puts, &done)
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "server")
	nw.MustBoot(2, "client")
	_ = nw.RunToCompletion() // ends in expected server-parked suspension
	_ = nw.Close()
	return done
}

// BenchmarkBulkPut measures one 2000-byte PUT through the windowed,
// fragmenting transport (window 8, three PUTs in flight, no loss): two
// FRAGs out, the completion ack with the piggybacked ACCEPT back.
// allocs/op is the per-PUT footprint with setup amortized over b.N: the
// wire frames, the REQUEST's one encoding (also the kernel's copy of the
// put data), the ACCEPT's encoding, the receiver's one reassembly buffer
// (which the decoded REQUEST's data keeps), two decoded kernel messages,
// the kernel's two request records and the handler's process record.
func BenchmarkBulkPut(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(bulkPutSize)
	if done := runBulk(b.N); done != b.N {
		b.Fatalf("%d of %d PUTs succeeded", done, b.N)
	}
}

// bulkPutAllocBudget is the steady-state allocation count of one bulk PUT
// (BenchmarkBulkPut's allocs/op), the dynamic check of the windowed path's
// amortized: and counted: suppressions. Lower it when a change removes
// allocations; never raise it to make a change fit.
const bulkPutAllocBudget = 12

// TestBulkPutAllocBudget measures the marginal allocations of one bulk PUT
// the way TestRequestRoundTripAllocBudget does for a round trip: two runs
// that differ only in their number of PUTs.
func TestBulkPutAllocBudget(t *testing.T) {
	run := func(puts int) func() {
		return func() {
			if done := runBulk(puts); done != puts {
				t.Fatalf("%d of %d PUTs succeeded", done, puts)
			}
		}
	}
	const few, many = 10, 210
	perPut := (testing.AllocsPerRun(3, run(many)) - testing.AllocsPerRun(3, run(few))) / (many - few)
	t.Logf("%.2f allocs per bulk PUT (budget %d)", perPut, bulkPutAllocBudget)
	if perPut > bulkPutAllocBudget {
		t.Fatalf("one bulk PUT allocates %.2f times, over the budget of %d", perPut, bulkPutAllocBudget)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// chaosRunAllocBudget is the allocation count of TestChaosRunAllocBudget's
// sweep, eight checked and traced fileserver runs, as measured: 13 168 (a
// GC that empties a sync.Pool costs a few refills).
// Lower it when a change removes allocations; never raise it to make a
// change fit.
const chaosRunAllocBudget = 13170

// TestChaosRunAllocBudget pins the allocations of one sweep.Run of the
// fileserver scenario over one seed and eight fault plans with the
// invariant checkers on: boot, plan generation, the frame log that feeds
// the trace hash, and the checkers, which the round-trip budget does not
// reach.
func TestChaosRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts drift under the race detector")
	}
	spec := sweep.Spec{
		Scenario:  "fileserver",
		Seeds:     []int64{1},
		PlanSeeds: []int64{0, 1, 2, 3, 4, 5, 6, 7},
		Nodes:     []int{3},
		Horizon:   2 * time.Second,
		Checks:    true,
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sweep.Run(spec, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per eight-run sweep (budget %d)", allocs, chaosRunAllocBudget)
	if allocs > chaosRunAllocBudget {
		t.Fatalf("the sweep allocates %.0f times, over the budget of %d", allocs, chaosRunAllocBudget)
	}
}
