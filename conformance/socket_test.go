package conformance

import (
	"sync"
	"testing"
	"time"

	"soda"
	"soda/internal/core"
	"soda/scenario"
)

// socketNode is one machine of a socket-backed scenario run: its own
// soda.Network (one kernel, one TCP endpoint, one driver goroutine) and
// its own Recorder, so every observer append happens on that driver.
type socketNode struct {
	spec scenario.Node
	rec  *Recorder
	nw   *soda.Network
}

// runSocket executes one scenario across len(run.Nodes) socket-backed
// networks on localhost — real OS sockets, real wall clock — and returns
// the projected neutral transcript plus the Run (for its Elastic list).
// Flakiness by construction: every listener binds :0, completion is
// detected by posting the Done predicates onto their own driver
// goroutines (never by sleeping a guessed duration), and CloseSocket's
// leak check asserts every socket goroutine drained.
func runSocket(t *testing.T, sc scenario.Scenario) (*Transcript, scenario.Run) {
	t.Helper()
	run := sc.Build(sc.Nodes, sc.Limit, nil)
	nodes := make([]*socketNode, 0, len(run.Nodes))
	closeAll := func() {
		for _, n := range nodes {
			if err := n.nw.CloseSocket(); err != nil {
				t.Errorf("node %d: socket shutdown leaked: %v", n.spec.MID, err)
			}
		}
	}
	for _, ns := range run.Nodes {
		rec := &Recorder{}
		nw := soda.NewNetwork(soda.WithSocketTransport("127.0.0.1:0"))
		nw.Subscribe(soda.Subscriber{Kernel: rec.Observe})
		run.Register(nw)
		nw.MustAddNode(ns.MID)
		nodes = append(nodes, &socketNode{spec: ns, rec: rec, nw: nw})
	}
	// Full mesh: every node knows every listener before anything boots.
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.nw.SetSocketPeer(b.spec.MID, b.nw.SocketAddr())
			}
		}
	}
	for _, n := range nodes {
		if n.spec.Boot != "" {
			n.nw.MustBoot(n.spec.MID, n.spec.Boot)
		}
	}
	// No done predicate on the drivers: a parked driver stops answering its
	// peers, and dependents (fork neighbours, rendezvous partners) may
	// still need this node after its own part is finished. Completion is
	// observed from outside via PostSocket instead.
	for _, n := range nodes {
		n.nw.StartSocket(nil)
	}
	deadline := time.Now().Add(sc.Limit)
	for !socketAllDone(t, nodes) {
		for _, n := range nodes {
			if err := n.nw.SocketErr(); err != nil {
				closeAll()
				t.Fatalf("node %d: driver failed: %v", n.spec.MID, err)
			}
		}
		if time.Now().After(deadline) {
			closeAll()
			t.Fatalf("conformance: %s did not complete within %v on the socket backend", sc.Name, sc.Limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Settle before closing: a requester's done flag does not cover the
	// server's tail — the accept observation rides the Delta-t ACK and the
	// serving program's follow-up (e.g. a file server unadvertising a
	// closed fd) runs after it. A bounded quiescence wait lets those land;
	// scenarios with perpetual elastic traffic simply hit the cap, which is
	// fine — only elastic and DISCOVER-retry chains can still be cut
	// mid-flight, exactly what Compare forgives.
	var settled sync.WaitGroup
	for _, n := range nodes {
		settled.Add(1)
		go func(n *socketNode) {
			defer settled.Done()
			n.nw.WaitSocketIdle(100*time.Millisecond, time.Second)
		}(n)
	}
	settled.Wait()
	closeAll()
	if run.Check != nil {
		if err := run.Check(); err != nil {
			t.Fatalf("conformance: %s: socket run failed its semantic check: %v", sc.Name, err)
		}
	}
	var events []core.ObsEvent
	for _, n := range nodes {
		events = append(events, n.rec.Events()...)
	}
	return Project(events), run
}

// socketAllDone evaluates every Done predicate on its own node's driver
// goroutine (the only place scenario state may be read while the network
// runs). A node whose driver stops accepting posts counts as not done —
// the caller's deadline turns that into a failure.
func socketAllDone(t *testing.T, nodes []*socketNode) bool {
	t.Helper()
	for _, n := range nodes {
		if n.spec.Done == nil {
			continue
		}
		reply := make(chan bool, 1)
		done := n.spec.Done
		if !n.nw.PostSocket(func() { reply <- done() }) {
			return false
		}
		select {
		case v := <-reply:
			if !v {
				return false
			}
		case <-time.After(5 * time.Second):
			return false
		}
	}
	return true
}

// TestSocketConformance is the headline cross-validation: every
// registered scenario runs on real localhost TCP sockets, and its neutral
// transcript must be admissible against a fresh simulated run of the same
// scenario.
func TestSocketConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("socket legs are skipped in -short: they open real sockets and run on the wall clock")
	}
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			simTr, err := runSim(sc, 1)
			if err != nil {
				t.Fatalf("sim oracle run failed: %v", err)
			}
			sockTr, run := runSocket(t, sc)
			if t.Failed() {
				return
			}
			reports := Compare(simTr, sockTr, run.Elastic)
			for _, r := range reports {
				t.Error(r)
			}
			if len(reports) > 0 {
				t.Logf("sim transcript:\n%s", simTr.Render())
				t.Logf("socket transcript:\n%s", sockTr.Render())
			}
		})
	}
}
