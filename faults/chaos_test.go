// Chaos tests: the §4.4 applications run under scheduled fault plans with
// the invariant checkers armed. These are external tests (package
// faults_test) because they drive the soda facade, which itself imports
// package faults.
package faults_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"soda"
	"soda/apps/boundedbuf"
	"soda/apps/fileserver"
	"soda/apps/philo"
	"soda/faults"
	"soda/internal/golden"
	"soda/timesrv"
)

func d(v time.Duration) faults.Duration { return faults.Duration(v) }

// acceptancePlan is the ISSUE's acceptance scenario: a 10s partition, 10%
// asymmetric loss, frame corruption, and one crash/reboot cycle. groups
// split the network; lossDst makes the loss one-sided; target is the node
// that crashes and comes back running program.
func acceptancePlan(groups [][]faults.MID, lossDst faults.MID, target faults.MID, program string) faults.Plan {
	return faults.Plan{Events: []faults.Event{
		{Kind: faults.Partition, Start: d(5 * time.Second), Stop: d(15 * time.Second), Groups: groups},
		{Kind: faults.Loss, Start: 0, Stop: d(20 * time.Second), Dst: lossDst, Prob: 0.10},
		{Kind: faults.Corrupt, Start: 0, Stop: d(20 * time.Second), Prob: 0.05},
		{Kind: faults.Crash, Start: d(21 * time.Second), Node: target},
		{Kind: faults.Reboot, Start: d(22 * time.Second), Node: target, Program: program},
	}}
}

// runPhiloChaos runs the dining philosophers (timeserver on 1, ring on 2-6,
// deadlock detector on 7) for 32s of virtual time under the acceptance
// plan: partition {1,2,3}|{4,5,6,7}, loss into machine 3, detector
// crash/reboot at 21s/22s. Every client is killed at 28s so in-flight
// requests resolve before the cutoff.
func runPhiloChaos(t *testing.T, seed int64, trace io.Writer) (*soda.Network, []int) {
	t.Helper()
	ring := []soda.MID{2, 3, 4, 5, 6}
	plan := acceptancePlan([][]faults.MID{{1, 2, 3}, {4, 5, 6, 7}}, 3, 7, "detector")
	nw := soda.NewNetwork(soda.WithSeed(seed), soda.WithFaultPlan(plan), soda.WithInvariantChecks())
	nw.Trace(trace)
	nw.Register("timesrv", timesrv.Program(16))
	nw.MustAddNode(1)
	nw.MustBoot(1, "timesrv")
	meals := make([]int, len(ring))
	for i, mid := range ring {
		i := i
		left := ring[(i-1+len(ring))%len(ring)]
		name := fmt.Sprintf("phil%d", i)
		nw.Register(name, philo.Philosopher(left, 0, 50*time.Millisecond, 30*time.Millisecond,
			func(c *soda.Client, meal int) { meals[i] = meal }))
		nw.MustAddNode(mid)
		nw.MustBoot(mid, name)
	}
	nw.Register("detector", philo.Detector(ring, 200*time.Millisecond, nil))
	nw.MustAddNode(7)
	nw.MustBoot(7, "detector")
	// Kill every client well before the end: their deaths void in-flight
	// requests, so the network can drain and Unresolved() must come back
	// empty. The detector dies first so it stops issuing probes.
	nw.At(28*time.Second, func() {
		for _, m := range []soda.MID{7, 2, 3, 4, 5, 6, 1} {
			nw.Node(m).Die()
		}
	})
	if err := nw.Run(32 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	return nw, meals
}

func assertGreen(t *testing.T, nw *soda.Network) {
	t.Helper()
	ch := nw.Invariants()
	if ch == nil {
		t.Fatal("invariant checker not installed")
	}
	if ch.Requests() == 0 {
		t.Fatal("checker saw no requests; the scenario did not run")
	}
	for _, v := range ch.Finish() {
		t.Errorf("violation: %s", v)
	}
	for _, sig := range ch.Unresolved() {
		t.Errorf("request stuck (never resolved): %v", sig)
	}
}

func TestChaosAcceptancePhilosophers(t *testing.T) {
	nw, meals := runPhiloChaos(t, 42, nil)
	assertGreen(t, nw)
	for i, m := range meals {
		if m == 0 {
			t.Errorf("philosopher %d never ate under the fault plan: %v", i, meals)
		}
	}
	if _, corrupted := nw.Invariants().Frames(); corrupted == 0 {
		t.Error("plan corrupted no frames; corruption path not exercised")
	}
}

func TestChaosAcceptanceFileServer(t *testing.T) {
	plan := acceptancePlan([][]faults.MID{{1}, {2}}, 1, 1, "fs")
	nw := soda.NewNetwork(soda.WithSeed(7), soda.WithFaultPlan(plan), soda.WithInvariantChecks())
	nw.Register("fs", fileserver.Server(map[string][]byte{
		"motd": []byte("hello"),
	}, 32))
	successes := 0
	nw.Register("client", soda.Program{
		Task: func(c *soda.Client) {
			// Loop until the quiet tail, tolerating every failure mode: the
			// server is partitioned away for 10s and loses its state to a
			// crash at 21s.
			for c.Now() < 27*time.Second {
				srv, ok := fileserver.Find(c)
				if !ok {
					c.Hold(200 * time.Millisecond)
					continue
				}
				f, err := fileserver.Open(c, srv, "motd")
				if err != nil {
					c.Hold(100 * time.Millisecond)
					continue
				}
				if data, err := f.Read(64); err == nil && string(data) == "hello" {
					successes++
				}
				_ = f.Close()
				c.Hold(50 * time.Millisecond)
			}
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "fs")
	nw.MustBoot(2, "client")
	if err := nw.Run(32 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	assertGreen(t, nw)
	if successes == 0 {
		t.Error("no session ever succeeded around the faults")
	}
}

// TestChaosTraceIsDeterministic replays the philosopher acceptance run:
// the same seed and the same plan must reproduce the same bus traffic,
// frame for frame.
func TestChaosTraceIsDeterministic(t *testing.T) {
	run := func() string {
		var trace strings.Builder
		nw, _ := runPhiloChaos(t, 42, &trace)
		if lines := strings.Count(trace.String(), "\n"); lines == 0 || uint64(lines) != nw.Stats().FramesSent {
			t.Fatalf("%d trace lines for %d frames sent", lines, nw.Stats().FramesSent)
		}
		return trace.String()
	}
	if d := golden.Diff(run(), run()); d != "" {
		t.Fatalf("same seed + same plan diverged at %s", d)
	}
}

// TestFileServerLossSweep sweeps frame loss from 0 to 30% over file-server
// sessions; the invariant checkers assert exactly-once delivery holds at
// every probability.
func TestFileServerLossSweep(t *testing.T) {
	for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
		loss := loss
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			nw := soda.NewNetwork(soda.WithSeed(11), soda.WithLoss(loss), soda.WithInvariantChecks())
			nw.Register("fs", fileserver.Server(map[string][]byte{"motd": []byte("hi")}, 32))
			successes := 0
			nw.Register("client", soda.Program{
				Task: func(c *soda.Client) {
					for c.Now() < 5*time.Second {
						srv, ok := fileserver.Find(c)
						if !ok {
							c.Hold(100 * time.Millisecond)
							continue
						}
						f, err := fileserver.Open(c, srv, "motd")
						if err != nil {
							continue
						}
						if _, err := f.Read(64); err == nil {
							successes++
						}
						_ = f.Close()
					}
				},
			})
			nw.MustAddNode(1)
			nw.MustAddNode(2)
			nw.MustBoot(1, "fs")
			nw.MustBoot(2, "client")
			if err := nw.Run(7 * time.Second); err != nil {
				t.Fatalf("run: %v", err)
			}
			assertGreen(t, nw)
			if successes == 0 {
				t.Error("no session succeeded")
			}
		})
	}
}

// TestGeneratedPlanSeedSweep runs the bounded buffer under randomized,
// generated fault plans across seeds. Items are tagged, so duplicates at
// the consumer would betray a broken exactly-once guarantee at the
// application layer too.
func TestGeneratedPlanSeedSweep(t *testing.T) {
	const perProducer = 25
	totalConsumed := 0
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := faults.Generate(rand.New(rand.NewSource(seed)), faults.GenConfig{
				Horizon: 12 * time.Second,
				MIDs:    []faults.MID{1, 2, 3},
			})
			if err := plan.Validate(); err != nil {
				t.Fatalf("generated plan invalid: %v", err)
			}
			nw := soda.NewNetwork(soda.WithSeed(seed), soda.WithFaultPlan(plan), soda.WithInvariantChecks())
			seen := make(map[string]bool)
			nw.Register("consumer", boundedbuf.Consumer(4, 8, func(c *soda.Client, data []byte) {
				key := string(data)
				if seen[key] {
					t.Errorf("item %x consumed twice", data)
				}
				seen[key] = true
			}))
			tag := func(producer byte) func(c *soda.Client, i int) []byte {
				return func(c *soda.Client, i int) []byte {
					c.Hold(10 * time.Millisecond) // production time
					item := make([]byte, 5)
					item[0] = producer
					binary.BigEndian.PutUint32(item[1:], uint32(i))
					return item
				}
			}
			nw.Register("producerA", boundedbuf.Producer(perProducer, tag('a'), nil))
			nw.Register("producerB", boundedbuf.Producer(perProducer, tag('b'), nil))
			nw.MustAddNode(1)
			nw.MustAddNode(2)
			nw.MustAddNode(3)
			nw.MustBoot(1, "consumer")
			nw.MustBoot(2, "producerA")
			nw.MustBoot(3, "producerB")
			if err := nw.Run(12 * time.Second); err != nil {
				t.Fatalf("run: %v", err)
			}
			ch := nw.Invariants()
			for _, v := range ch.Finish() {
				t.Errorf("violation: %s", v)
			}
			for _, sig := range ch.Unresolved() {
				t.Errorf("request stuck (never resolved): %v", sig)
			}
			if len(seen) > 2*perProducer {
				t.Errorf("consumed %d items from %d produced", len(seen), 2*perProducer)
			}
			totalConsumed += len(seen)
		})
	}
	if totalConsumed == 0 {
		t.Error("no seed delivered any items; the sweep exercised nothing")
	}
}

// TestBulkTransferLossSweep drives multi-fragment EXCHANGEs through the
// windowed transport (DESIGN.md §12) under 10% and 30% frame loss. The
// invariant checkers assert exactly-once delivery holds while selective
// repeat repairs the holes.
func TestBulkTransferLossSweep(t *testing.T) {
	pattern := soda.WellKnownPattern(0o6223)
	for _, loss := range []float64{0.1, 0.3} {
		loss := loss
		t.Run(fmt.Sprintf("selective/loss=%v", loss), func(t *testing.T) {
			nw := soda.NewNetwork(soda.WithSeed(13), soda.WithLoss(loss),
				soda.WithTransportWindow(8), soda.WithInvariantChecks())
			reply := make([]byte, 4000)
			for i := range reply {
				reply[i] = byte(i * 7)
			}
			nw.Register("sink", soda.Program{
				Init: func(c *soda.Client, _ soda.MID) {
					if err := c.Advertise(pattern); err != nil {
						panic(err)
					}
				},
				Handler: func(c *soda.Client, ev soda.Event) {
					if ev.Kind != soda.EventRequestArrival || ev.Pattern != pattern {
						return
					}
					c.AcceptCurrentExchange(soda.OK, reply[:ev.GetSize], ev.PutSize)
				},
			})
			successes := 0
			nw.Register("client", soda.Program{
				Task: func(c *soda.Client) {
					put := make([]byte, 4000)
					for i := range put {
						put[i] = byte(i * 3)
					}
					for c.Now() < 5*time.Second {
						srv, ok := c.Discover(pattern)
						if !ok {
							c.Hold(100 * time.Millisecond)
							continue
						}
						res := c.BExchange(srv, soda.OK, put, len(reply))
						if res.Status != soda.StatusSuccess {
							c.Hold(100 * time.Millisecond)
							continue
						}
						if len(res.Data) != len(reply) {
							t.Errorf("short bulk reply: %d bytes, want %d", len(res.Data), len(reply))
							return
						}
						for i := range res.Data {
							if res.Data[i] != reply[i] {
								t.Errorf("bulk reply corrupted at byte %d", i)
								return
							}
						}
						successes++
					}
				},
			})
			nw.MustAddNode(1)
			nw.MustAddNode(2)
			nw.MustAddNode(3)
			nw.MustBoot(1, "sink")
			nw.MustBoot(2, "client")
			nw.MustBoot(3, "client")
			if err := nw.Run(7 * time.Second); err != nil {
				t.Fatalf("run: %v", err)
			}
			assertGreen(t, nw)
			if successes == 0 {
				t.Error("no bulk exchange ever completed")
			}
		})
	}
}
