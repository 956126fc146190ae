package soda_test

import (
	"fmt"
	"testing"
	"time"

	"soda"
)

var pattern = soda.WellKnownPattern(0o346)

// echo is a minimal service: every arrival is EXCHANGE-accepted with a
// fixed banner.
func echo(banner string) soda.Program {
	return soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			if err := c.Advertise(pattern); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind == soda.EventRequestArrival {
				c.AcceptCurrentExchange(soda.OK, []byte(banner), ev.PutSize)
			}
		},
	}
}

func TestLifecycleBootCrashRecover(t *testing.T) {
	nw := soda.NewNetwork()
	nw.Register("echo", echo("alive"))
	type step struct {
		at   time.Duration
		what string
	}
	var steps []step
	note := func(c *soda.Client, what string) { steps = append(steps, step{c.Now(), what}) }

	nw.Register("driver", soda.Program{
		Task: func(c *soda.Client) {
			srv, ok := c.Discover(pattern)
			if !ok {
				t.Error("service not discovered")
				return
			}
			note(c, "discovered")
			if res := c.BExchange(srv, soda.OK, []byte("x"), 16); res.Status != soda.StatusSuccess {
				t.Errorf("first call: %v", res.Status)
				return
			}
			note(c, "first call ok")
			// The server crashes at t=1s and stays down until t=3s; a
			// call into the dead window fails CRASHED once the transport
			// exhausts its retransmissions (MPL+Δt of silence).
			c.Hold(time.Second)
			if res := c.BExchange(srv, soda.OK, []byte("x"), 16); res.Status != soda.StatusCrashed {
				t.Errorf("call to crashed server: %v, want CRASHED", res.Status)
				return
			}
			note(c, "crash observed")
			// Wait for the machine to reboot and be re-booted, then the
			// service resumes: discover again (the MID may be the same,
			// but the pattern had to be readvertised by the new client).
			c.Hold(2 * time.Second)
			srv2, ok := c.Discover(pattern)
			if !ok {
				t.Error("service not rediscovered after recovery")
				return
			}
			if res := c.BExchange(srv2, soda.OK, []byte("x"), 16); res.Status != soda.StatusSuccess {
				t.Errorf("post-recovery call: %v", res.Status)
				return
			}
			note(c, "recovered")
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "echo")
	nw.MustBoot(2, "driver")
	nw.At(time.Second, func() { nw.Node(1).Crash() })
	nw.At(3*time.Second, func() {
		nw.Node(1).Reboot(func() {
			if err := nw.Node(1).Boot("echo", 0); err != nil {
				t.Errorf("re-boot: %v", err)
			}
		})
	})
	if err := nw.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"discovered", "first call ok", "crash observed", "recovered"}
	if len(steps) != len(want) {
		t.Fatalf("steps = %+v", steps)
	}
	for i, w := range want {
		if steps[i].what != w {
			t.Fatalf("step %d = %q, want %q (%+v)", i, steps[i].what, w, steps)
		}
	}
}

func TestWorkloadSurvivesFrameLoss(t *testing.T) {
	// End-to-end through every layer: with 10% frame loss, a hundred
	// blocking exchanges all succeed (Delta-t absorbs the loss).
	nw := soda.NewNetwork(soda.WithLoss(0.10), soda.WithSeed(3))
	nw.Register("echo", echo("ok"))
	done := 0
	nw.Register("driver", soda.Program{
		Task: func(c *soda.Client) {
			srv := soda.ServerSig{MID: 1, Pattern: pattern}
			for i := 0; i < 100; i++ {
				res := c.BExchange(srv, soda.OK, []byte(fmt.Sprintf("%03d", i)), 16)
				if res.Status != soda.StatusSuccess {
					t.Errorf("op %d: %v", i, res.Status)
					return
				}
				done++
			}
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "echo")
	nw.MustBoot(2, "driver")
	if err := nw.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if done != 100 {
		t.Fatalf("completed %d/100 under loss", done)
	}
	if st := nw.Stats(); st.FramesLost == 0 {
		t.Error("loss model inert; test proved nothing")
	}
}

func TestManyNodesAllPairs(t *testing.T) {
	// Eight clients, each both serving and calling every other: exercises
	// crossing requests, piggybacking and per-peer connection state at
	// scale.
	const n = 8
	nw := soda.NewNetwork()
	nw.Register("peer", soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			if err := c.Advertise(pattern); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind == soda.EventRequestArrival {
				c.AcceptCurrentExchange(soda.OK, []byte{byte(c.MID())}, ev.PutSize)
			}
		},
		Task: func(c *soda.Client) {
			for other := soda.MID(1); other <= n; other++ {
				if other == c.MID() {
					continue
				}
				res := c.BExchange(soda.ServerSig{MID: other, Pattern: pattern}, soda.OK, []byte{byte(c.MID())}, 4)
				if res.Status != soda.StatusSuccess {
					t.Errorf("%d->%d: %v", c.MID(), other, res.Status)
					return
				}
				if len(res.Data) != 1 || res.Data[0] != byte(other) {
					t.Errorf("%d->%d: reply %v", c.MID(), other, res.Data)
					return
				}
			}
			c.WaitUntil(func() bool { return false }) // keep serving
		},
	})
	for mid := soda.MID(1); mid <= n; mid++ {
		nw.MustAddNode(mid)
		nw.MustBoot(mid, "peer")
	}
	if err := nw.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (time.Duration, uint64) {
		nw := soda.NewNetwork(soda.WithSeed(42), soda.WithLoss(0.05))
		nw.Register("echo", echo("d"))
		var finished time.Duration
		nw.Register("driver", soda.Program{
			Task: func(c *soda.Client) {
				srv := soda.ServerSig{MID: 1, Pattern: pattern}
				for i := 0; i < 20; i++ {
					c.BExchange(srv, soda.OK, []byte{byte(i)}, 8)
				}
				finished = c.Now()
			},
		})
		nw.MustAddNode(1)
		nw.MustAddNode(2)
		nw.MustBoot(1, "echo")
		nw.MustBoot(2, "driver")
		if err := nw.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		return finished, nw.Stats().FramesSent
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

func TestRunToCompletionDetectsDeadlock(t *testing.T) {
	// Two clients each parked waiting for a message the other never
	// sends; with no pending events the scheduler reports the stall.
	nw := soda.NewNetwork()
	nw.Register("stuck", soda.Program{
		Task: func(c *soda.Client) {
			c.WaitUntil(func() bool { return false })
		},
	})
	nw.MustAddNode(1)
	nw.MustBoot(1, "stuck")
	if err := nw.RunToCompletion(); err == nil {
		t.Fatal("RunToCompletion did not report the stalled client")
	}
}

func TestEventLimitGuardsLivelock(t *testing.T) {
	nw := soda.NewNetwork(soda.WithEventLimit(5_000))
	nw.Register("spinner", soda.Program{
		Task: func(c *soda.Client) {
			for {
				c.Hold(time.Microsecond)
			}
		},
	})
	nw.MustAddNode(1)
	nw.MustBoot(1, "spinner")
	if err := nw.Run(time.Hour); err == nil {
		t.Fatal("event limit did not trip")
	}
}

// TestCloseSocketEndsTheKernel: CloseSocket unwinds the processes still
// parked on a socket network's kernel, as Close does, so a task blocked
// forever neither keeps its goroutine nor holds its network.
func TestCloseSocketEndsTheKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a real socket")
	}
	nw := soda.NewNetwork(soda.WithSocketTransport("127.0.0.1:0"))
	started, unwound := false, false
	nw.Register("parked", soda.Program{Task: func(c *soda.Client) {
		defer func() { unwound = true }()
		started = true
		c.WaitUntil(func() bool { return false })
	}})
	nw.MustAddNode(1)
	nw.MustBoot(1, "parked")
	nw.StartSocket(func() bool { return started })
	if !nw.WaitSocket(5 * time.Second) {
		t.Fatal("the task did not start within 5s")
	}
	if err := nw.CloseSocket(); err != nil {
		t.Fatal(err)
	}
	if !unwound {
		t.Fatal("CloseSocket left the parked task running")
	}
}
