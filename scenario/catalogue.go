package scenario

import (
	"bytes"
	"fmt"
	"time"

	"soda"
	"soda/apps/fileserver"
	"soda/apps/philo"
	"soda/csp"
	"soda/timesrv"
)

// catalogue is the registry. Fixed-layout entries are the paper's
// programs as single sessions (count-based, except crash); the entries
// that scale are the sweep workloads (horizon-based).
var catalogue = []Scenario{
	{Name: "bootkill", Nodes: 2, Limit: 30 * time.Second, build: bootkill},
	{Name: "bulktransfer", Nodes: 2, Scales: true, build: bulktransfer},
	{Name: "crash", Nodes: 2, build: crash},
	{Name: "dining", Nodes: 5, Limit: 2 * time.Minute, build: dining},
	{Name: "fileserver", Nodes: 2, Scales: true, build: fileserverLoad},
	{Name: "fileservice", Nodes: 2, Limit: 30 * time.Second, build: fileservice},
	{Name: "internet", Nodes: 2, Scales: true, build: internet},
	{Name: "philosophers", Nodes: 4, Scales: true, build: philosophers},
	{Name: "quickstart", Nodes: 2, Limit: 30 * time.Second, build: quickstart},
	{Name: "rendezvous", Nodes: 3, Limit: 30 * time.Second, build: rendezvous},
}

// service advertises p at boot and hands every REQUEST on it to serve.
func service(p soda.Pattern, serve func(c *soda.Client, ev soda.Event)) soda.Program {
	return soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			if err := c.Advertise(p); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind == soda.EventRequestArrival && ev.Pattern == p {
				serve(c, ev)
			}
		},
	}
}

// star lays out a server on machine 1 and a client on each of 2..n.
func star(n int, server, client string) []Node {
	nodes := make([]Node, 1, n)
	nodes[0] = Node{MID: 1, Boot: server}
	for mid := soda.MID(2); int(mid) <= n; mid++ {
		nodes = append(nodes, Node{MID: mid, Boot: client})
	}
	return nodes
}

// retry repeats try every 20 ms until it succeeds: on the socket backend
// a server's advertisement can race the first DISCOVER.
func retry[T any](c *soda.Client, try func() (T, bool)) T {
	for {
		if v, ok := try(); ok {
			return v
		}
		c.Hold(20 * time.Millisecond)
	}
}

var greeterPattern = soda.WellKnownPattern(0o4401)

// quickstart: a greeter service and a client that discovers it and runs
// two blocking exchanges (REQUEST/ACCEPT/DISCOVER end to end).
func quickstart(_ int, _ time.Duration, _ Printer) Run {
	var replies []string
	done := false
	return Run{
		Programs: map[string]soda.Program{
			"greeter": service(greeterPattern, func(c *soda.Client, ev soda.Event) {
				greeting := fmt.Sprintf("hello machine %d, your %d bytes arrived", ev.Asker.MID, ev.PutSize)
				c.AcceptCurrentExchange(soda.OK, []byte(greeting), ev.PutSize)
			}),
			"client": {Task: func(c *soda.Client) {
				srv := retry(c, func() (soda.ServerSig, bool) { return c.Discover(greeterPattern) })
				for _, msg := range []string{"first call", "second"} {
					if res := c.BExchange(srv, soda.OK, []byte(msg), 64); res.Status == soda.StatusSuccess {
						replies = append(replies, string(res.Data))
					}
				}
				done = true
			}},
		},
		Nodes: []Node{{MID: 1, Boot: "greeter"}, {MID: 2, Boot: "client", Done: func() bool { return done }}},
		Check: func() error {
			if len(replies) != 2 {
				return fmt.Errorf("quickstart: %d successful exchanges, want 2", len(replies))
			}
			if want := "hello machine 2, your 10 bytes arrived"; replies[0] != want {
				return fmt.Errorf("quickstart: reply %q, want %q", replies[0], want)
			}
			return nil
		},
	}
}

// fileservice: a file server and one client session — read a published
// file, create one, write, seek, read it back.
func fileservice(_ int, _ time.Duration, say Printer) Run {
	var motd, journal []byte
	done := false
	return Run{
		Programs: map[string]soda.Program{
			"fs": fileserver.Server(map[string][]byte{
				"motd": []byte("welcome to the SODA file service"),
			}, 32),
			"client": {Task: func(c *soda.Client) {
				defer func() { done = true }()
				srv := retry(c, func() (soda.MID, bool) { return fileserver.Find(c) })
				say("t=%8v  discovered file server on machine %d", c.Now(), srv)
				f, err := fileserver.Open(c, srv, "motd")
				if err != nil {
					say("t=%8v  open: %v", c.Now(), err)
					return
				}
				motd, _ = f.Read(64)
				say("t=%8v  read %q", c.Now(), motd)
				g, _ := fileserver.Open(c, srv, "journal")
				_ = g.Write([]byte("first entry"))
				_ = g.Seek(0)
				journal, _ = g.Read(64)
				say("t=%8v  wrote and re-read %q", c.Now(), journal)
				_ = g.Close()
				_ = f.Close()
				say("t=%8v  session closed", c.Now())
			}},
		},
		Nodes: []Node{{MID: 1, Boot: "fs"}, {MID: 2, Boot: "client", Done: func() bool { return done }}},
		Check: func() error {
			if !bytes.Equal(motd, []byte("welcome to the SODA file service")) {
				return fmt.Errorf("fileservice: motd = %q", motd)
			}
			if !bytes.Equal(journal, []byte("first entry")) {
				return fmt.Errorf("fileservice: journal roundtrip = %q", journal)
			}
			return nil
		},
	}
}

// bootkill: find a free machine by its reserved boot pattern, boot a
// child onto it remotely, kill it through the load capability, and see
// the machine become bootable again.
func bootkill(_ int, _ time.Duration, say Printer) Run {
	var bootErr error
	killed, done := false, false
	return Run{
		Programs: map[string]soda.Program{
			"child": {Task: func(c *soda.Client) {
				say("t=%8v  child booted on machine %d", c.Now(), c.MID())
				c.WaitUntil(func() bool { return false })
			}},
			"parent": {Task: func(c *soda.Client) {
				defer func() { done = true }()
				bootable := func() ([]soda.MID, bool) {
					free := c.DiscoverAll(soda.BootPattern, 4)
					return free, len(free) > 0
				}
				free := retry(c, bootable)
				say("t=%8v  free machines: %v", c.Now(), free)
				loadPat, err := soda.BootRemote(c, free[0], soda.BootPattern, "child")
				if bootErr = err; err != nil {
					say("t=%8v  boot failed: %v", c.Now(), err)
					return
				}
				say("t=%8v  child started; load pattern %v held as kill capability", c.Now(), loadPat)
				c.Hold(50 * time.Millisecond)
				if killed = soda.KillChild(c, free[0], loadPat); killed {
					say("t=%8v  child killed via the load pattern", c.Now())
				}
				say("t=%8v  machine bootable again: %v", c.Now(), retry(c, bootable))
			}},
		},
		Nodes: []Node{{MID: 1, Boot: "parent", Done: func() bool { return done }}, {MID: 2}},
		Check: func() error {
			if bootErr != nil {
				return fmt.Errorf("bootkill: remote boot: %w", bootErr)
			}
			if !killed {
				return fmt.Errorf("bootkill: KillChild failed")
			}
			return nil
		},
	}
}

// dining: a three-seat ring with the deadlock detector and the time
// service. The philosophers run unbounded (a finished philosopher's death
// would starve its neighbour) and the run is complete when every seat has
// eaten twice. Fork and probe traffic is timing-driven by design, so every
// philosopher pattern is elastic and the meal count carries the weight.
func dining(_ int, _ time.Duration, say Printer) Run {
	ring := []soda.MID{2, 3, 4}
	const mealsTarget = 2
	meals := make([]int, len(ring))
	run := Run{
		Programs: map[string]soda.Program{
			"timesrv": timesrv.Program(16),
			"detector": philo.Detector(ring, 150*time.Millisecond, func(v soda.MID) {
				say("            *** deadlock detected; philosopher on machine %d gives back its fork ***", v)
			}),
		},
		Nodes: []Node{{MID: 1, Boot: "timesrv"}},
		Elastic: []soda.Pattern{
			philo.GetFork, philo.PutFork, philo.ReturnFork,
			philo.Check, philo.GiveBack, timesrv.AlarmPattern,
		},
		Check: func() error {
			for i, m := range meals {
				if m < mealsTarget {
					return fmt.Errorf("dining: seat %d ate %d meals, want >= %d", i, m, mealsTarget)
				}
			}
			return nil
		},
	}
	for i, mid := range ring {
		name := fmt.Sprintf("phil%d", i)
		run.Programs[name] = philo.Philosopher(ring[(i+len(ring)-1)%len(ring)], 0,
			20*time.Millisecond, 10*time.Millisecond, func(c *soda.Client, meal int) {
				meals[i] = meal
				say("t=%8v  philosopher %d finished meal %d", c.Now(), i, meal)
			})
		run.Nodes = append(run.Nodes, Node{MID: mid, Boot: name, Done: func() bool { return meals[i] >= mealsTarget }})
	}
	run.Nodes = append(run.Nodes, Node{MID: 5, Boot: "detector"})
	return run
}

// rendezvous: a CSP token ring with output guards. One token circulates
// a three-worker ring; every worker runs exactly two Select rounds, so the
// global transfer sequence is fixed while the rendezvous query traffic
// underneath stays timing-driven (and therefore elastic).
func rendezvous(_ int, _ time.Duration, _ Printer) Run {
	const typToken int32 = 1
	name := func(mid soda.MID) soda.Pattern { return soda.WellKnownPattern(0o4500 + uint64(mid)) }
	mids := []soda.MID{1, 2, 3}
	holds := []int{1, 0, 0} // worker 1 starts with the token
	done := make([]bool, len(mids))
	run := Run{
		Programs: map[string]soda.Program{},
		Elastic:  []soda.Pattern{name(1), name(2), name(3)},
		Check: func() error {
			// Two rounds each with one token: it must travel 1→2→3→1.
			if holds[0] != 1 || holds[1] != 0 || holds[2] != 0 {
				return fmt.Errorf("rendezvous: token ended at the wrong seat (holds %v)", holds)
			}
			return nil
		},
	}
	for i, mid := range mids {
		next := mids[(i+1)%len(mids)]
		prog := fmt.Sprintf("worker%d", mid)
		run.Programs[prog] = soda.Program{
			Init: func(c *soda.Client, _ soda.MID) {
				r, err := csp.New(c, name(c.MID()))
				if err != nil {
					panic(err)
				}
				c.SetStash(r)
			},
			Handler: func(c *soda.Client, ev soda.Event) {
				c.Stash().(*csp.Runtime).HandleEvent(ev)
			},
			Task: func(c *soda.Client) {
				r := c.Stash().(*csp.Runtime)
				for round := 0; round < 2; round++ {
					res := r.Select([]csp.Guard{
						{
							When: func() bool { return holds[i] > 0 },
							Send: &csp.SendGuard{
								To:    soda.ServerSig{MID: next, Pattern: name(next)},
								Type:  typToken,
								Value: []byte{byte(c.MID())},
							},
						},
						{Recv: &csp.RecvGuard{Type: typToken}},
					})
					switch res.Index {
					case 0:
						holds[i]--
					case 1:
						holds[i]++
					default:
						done[i] = true
						return
					}
				}
				done[i] = true
				c.WaitUntil(func() bool { return false }) // keep answering peers
			},
		}
		run.Nodes = append(run.Nodes, Node{MID: mid, Boot: prog, Done: func() bool { return done[i] }})
	}
	return run
}

// crash: a client's request sits delivered at a server that never
// accepts, until the server machine crashes and the client's probes
// detect it. Horizon-based: the crash is a simulator action.
func crash(_ int, _ time.Duration, say Printer) Run {
	pat := soda.WellKnownPattern(0o42)
	status := soda.StatusSuccess
	return Run{
		Programs: map[string]soda.Program{
			"server": {Init: func(c *soda.Client, _ soda.MID) { _ = c.Advertise(pat) }},
			"client": {Task: func(c *soda.Client) {
				say("t=%8v  issuing request to the (soon to crash) server", c.Now())
				status = c.BSignal(soda.ServerSig{MID: 2, Pattern: pat}, soda.OK).Status
				say("t=%8v  request completed with status %v (probes detected the crash)", c.Now(), status)
			}},
		},
		Nodes: []Node{{MID: 1, Boot: "client"}, {MID: 2, Boot: "server"}},
		Schedule: func(nw *soda.Network) {
			nw.At(300*time.Millisecond, func() {
				say("t=%8v  *** server machine crashes ***", 300*time.Millisecond)
				nw.Node(2).Crash()
			})
		},
		Check: func() error {
			if status != soda.StatusCrashed {
				return fmt.Errorf("crash: request status %v, want %v", status, soda.StatusCrashed)
			}
			return nil
		},
	}
}

// load is a sweep client. Until 3/4 of the horizon — the quiet tail
// faults.Generate leaves, so the network drains before the cutoff — it
// finds a server (holding 200 ms when none answers), runs one session
// against it (holding 100 ms after a failed one), and pauses.
func load[S any](horizon, pause time.Duration, find func(*soda.Client) (S, bool), session func(*soda.Client, S) bool) soda.Program {
	return soda.Program{Task: func(c *soda.Client) {
		for stop := horizon * 3 / 4; c.Now() < stop; {
			if srv, ok := find(c); !ok {
				c.Hold(200 * time.Millisecond)
			} else if !session(c, srv) {
				c.Hold(100 * time.Millisecond)
			} else {
				c.Hold(pause)
			}
		}
	}}
}

// fileserverLoad: the file service on node 1, with n-1 clients looping
// find/open/read/close sessions against it.
func fileserverLoad(n int, horizon time.Duration, _ Printer) Run {
	return Run{
		Programs: map[string]soda.Program{
			"fs": fileserver.Server(map[string][]byte{
				"motd":  []byte("hello from the sweep"),
				"zeros": make([]byte, 256),
			}, 32),
			"client": load(horizon, 50*time.Millisecond, fileserver.Find, func(c *soda.Client, srv soda.MID) bool {
				f, err := fileserver.Open(c, srv, "motd")
				if err != nil {
					return false
				}
				_, _ = f.Read(64)
				_ = f.Close()
				return true
			}),
		},
		Nodes: star(n, "fs", "client"),
	}
}

// bulktransfer: a bulk sink on node 1, with n-1 clients streaming
// multi-fragment EXCHANGEs at it (4000-byte puts and replies, four FRAG
// frames each way at the default fragment size). Loss and partition
// faults land mid-message, so the windowed transport's selective repeat,
// SACK recovery and AIMD window all run hot.
func bulktransfer(n int, horizon time.Duration, _ Printer) Run {
	p := soda.WellKnownPattern(0o6223)
	put, reply := make([]byte, 4000), make([]byte, 4000)
	for i := range reply {
		put[i], reply[i] = byte(0x51+i), byte(i)
	}
	return Run{
		Programs: map[string]soda.Program{
			"bulksink": service(p, func(c *soda.Client, ev soda.Event) {
				c.AcceptCurrentExchange(soda.OK, reply[:ev.GetSize], ev.PutSize)
			}),
			"bulkclient": load(horizon, 20*time.Millisecond, discover(p), func(c *soda.Client, srv soda.ServerSig) bool {
				return c.BExchange(srv, soda.OK, put, len(reply)).Status == soda.StatusSuccess
			}),
		},
		Nodes: star(n, "bulksink", "bulkclient"),
	}
}

// internet: a discovery-heavy request workload for segmented sweeps: one
// echo service on node 1, every other node looping DISCOVER + EXCHANGE
// against it. On a star topology node 1 lands on segment 1, so most
// queries and requests cross gateways — the traffic the DISCOVER proxy
// cache and unicast routing exist for. On a single bus it is the flat
// baseline the scaling curve compares against.
func internet(n int, horizon time.Duration, _ Printer) Run {
	p := soda.WellKnownPattern(0o7131)
	return Run{
		Programs: map[string]soda.Program{
			"inetecho": service(p, func(c *soda.Client, ev soda.Event) {
				c.AcceptCurrentExchange(soda.OK, []byte("pong"), ev.PutSize)
			}),
			"inetclient": load(horizon, 75*time.Millisecond, discover(p), func(c *soda.Client, srv soda.ServerSig) bool {
				return c.BExchange(srv, soda.OK, []byte("ping"), 16).Status == soda.StatusSuccess
			}),
		},
		Nodes: star(n, "inetecho", "inetclient"),
	}
}

// discover is one DISCOVER of p, as load's find.
func discover(p soda.Pattern) func(*soda.Client) (soda.ServerSig, bool) {
	return func(c *soda.Client) (soda.ServerSig, bool) { return c.Discover(p) }
}

// philosophers: the dining ring as a sweep workload — the time service on
// node 1 and a ring of n-1 philosophers on 2..n, with no detector. The
// ring never stops on its own, so every machine is killed at 7/8 of the
// horizon to drain.
func philosophers(n int, horizon time.Duration, _ Printer) Run {
	run := Run{
		Programs: map[string]soda.Program{"timesrv": timesrv.Program(16)},
		Nodes:    []Node{{MID: 1, Boot: "timesrv"}},
	}
	ring := make([]soda.MID, n-1)
	for i := range ring {
		ring[i] = soda.MID(i + 2)
	}
	for i, mid := range ring {
		name := fmt.Sprintf("phil%d", i)
		run.Programs[name] = philo.Philosopher(ring[(i+len(ring)-1)%len(ring)], 0,
			50*time.Millisecond, 30*time.Millisecond, nil)
		run.Nodes = append(run.Nodes, Node{MID: mid, Boot: name})
	}
	run.Schedule = func(nw *soda.Network) {
		nw.At(horizon*7/8, func() {
			for _, mid := range ring {
				nw.Node(mid).Die()
			}
			nw.Node(1).Die()
		})
	}
	return run
}
