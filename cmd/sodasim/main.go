// Command sodasim runs named SODA scenarios on a simulated network and
// narrates what happens.
//
// Usage:
//
//	sodasim -scenario philosophers   # dining philosophers + deadlock detector
//	sodasim -scenario fileserver     # remote file service session
//	sodasim -scenario boot           # remote boot / kill via reserved patterns
//	sodasim -scenario crash          # crash detection via probes
//	sodasim -seed 7 -duration 30s    # any scenario is deterministic per seed
//
// Observability:
//
//	sodasim -trace out.json          # write a Chrome trace (load in Perfetto)
//	sodasim -metrics                 # print per-primitive latency digests
//	sodasim -frames                  # print every frame on the bus
//
// Fault injection (any combination; all deterministic per seed):
//
//	sodasim -loss 0.1                # drop 10% of frames
//	sodasim -corrupt 0.05            # damage 5% of frames (CRC-detected)
//	sodasim -duplicate 0.05          # re-deliver 5% of frames
//	sodasim -faultplan plan.json     # replay a declarative fault plan
//	sodasim -chaos                   # generate a random plan from the seed
//	sodasim -check                   # invariant checkers without faults
//
// Whenever any fault source is active the invariant checkers run and the
// command exits non-zero if a reliability guarantee was violated.
//
// Real sockets (DESIGN.md §16): -net tcp runs one SODA machine per OS
// process over localhost TCP instead of the simulated bus. Two terminals:
//
//	sodasim -net tcp -role fs     -listen 127.0.0.1:7001 -peers 2=127.0.0.1:7002
//	sodasim -net tcp -role client -listen 127.0.0.1:7002 -peers 1=127.0.0.1:7001
//
// The peer map is explicit and symmetric: each process lists every other
// machine's MID and address (the transport does not learn return routes).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"soda"
	"soda/apps/fileserver"
	"soda/apps/philo"
	"soda/faults"
	"soda/obs"
	"soda/timesrv"
)

func main() {
	scenario := flag.String("scenario", "philosophers", "scenario: philosophers, fileserver, boot, crash")
	seed := flag.Int64("seed", 1, "deterministic random seed")
	duration := flag.Duration("duration", 20*time.Second, "virtual run time")
	frames := flag.Bool("frames", false, "print every frame on the bus")
	flag.StringVar(&ocfg.traceFile, "trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	flag.BoolVar(&ocfg.traceWire, "tracewire", false, "include per-frame wire events in the trace (bulky)")
	flag.BoolVar(&ocfg.metrics, "metrics", false, "print per-primitive latency digests and node counters")
	flag.Float64Var(&fcfg.loss, "loss", 0, "per-frame loss probability (0..1)")
	flag.Float64Var(&fcfg.corrupt, "corrupt", 0, "per-frame corruption probability (0..1)")
	flag.Float64Var(&fcfg.duplicate, "duplicate", 0, "per-frame duplication probability (0..1)")
	flag.StringVar(&fcfg.planFile, "faultplan", "", "JSON fault plan to replay")
	flag.BoolVar(&fcfg.chaos, "chaos", false, "generate a random fault plan from the seed")
	flag.BoolVar(&fcfg.check, "check", false, "run the invariant checkers even without faults")
	flag.IntVar(&pcfg.segments, "segments", 0, "star-internetwork segment count (<=1 = single shared bus)")
	flag.DurationVar(&pcfg.forwardDelay, "forwarddelay", 2*time.Millisecond, "gateway store-and-forward delay; the conservative lookahead bound for -parworkers")
	flag.IntVar(&pcfg.parworkers, "parworkers", 0, "intra-run parallel workers (needs -segments >= 2; <=1 = sequential)")
	flag.StringVar(&ncfg.net, "net", "sim", "transport: sim (deterministic virtual time) or tcp (real sockets, wall time)")
	flag.StringVar(&ncfg.role, "role", "", "-net tcp: which machine this process is (fileserver scenario: fs or client)")
	flag.StringVar(&ncfg.listen, "listen", "127.0.0.1:0", "-net tcp: listen address for peer connections")
	flag.StringVar(&ncfg.peers, "peers", "", "-net tcp: comma-separated mid=host:port peer map")
	flag.Parse()
	traceAll = *frames

	if ncfg.net == "tcp" {
		if err := runSocket(*scenario, *seed, *duration); err != nil {
			fmt.Fprintf(os.Stderr, "sodasim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var err error
	switch *scenario {
	case "philosophers":
		err = runPhilosophers(*seed, *duration)
	case "fileserver":
		err = runFileServer(*seed, *duration)
	case "boot":
		err = runBoot(*seed, *duration)
	case "crash":
		err = runCrash(*seed, *duration)
	default:
		err = fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sodasim: %v\n", err)
		os.Exit(1)
	}
}

// traceAll enables frame tracing on every scenario network.
var traceAll bool

// fcfg carries the fault-injection flags into the scenario runners.
var fcfg struct {
	loss, corrupt, duplicate float64
	planFile                 string
	chaos                    bool
	check                    bool
}

// pcfg carries the topology and intra-run parallelism flags. A -parworkers
// request without a shardable -segments topology degrades to sequential
// with the library's explicit stderr warning (never silently).
var pcfg struct {
	segments     int
	forwardDelay time.Duration
	parworkers   int
}

// ocfg carries the observability flags; tracer/metrics hold the instances
// attached to the scenario network so report can export them.
var ocfg struct {
	traceFile string
	traceWire bool
	metrics   bool
	tracer    *obs.Tracer
	registry  *obs.Registry
}

// newNetwork assembles the scenario network plus whatever fault sources the
// flags ask for. The scenario passes its machine set and the nodes a chaos
// plan may crash (stateless services only) so -chaos can target them.
func newNetwork(seed int64, d time.Duration, mids []soda.MID, crashable []faults.CrashTarget) (*soda.Network, error) {
	var plan faults.Plan
	if fcfg.planFile != "" {
		data, err := os.ReadFile(fcfg.planFile)
		if err != nil {
			return nil, err
		}
		p, err := faults.Parse(data)
		if err != nil {
			return nil, err
		}
		plan.Events = append(plan.Events, p.Events...)
	}
	if fcfg.corrupt > 0 {
		plan.Events = append(plan.Events, faults.Event{Kind: faults.Corrupt, Prob: fcfg.corrupt})
	}
	if fcfg.duplicate > 0 {
		plan.Events = append(plan.Events, faults.Event{Kind: faults.Duplicate, Prob: fcfg.duplicate})
	}
	if fcfg.chaos {
		gen := faults.Generate(rand.New(rand.NewSource(seed)), faults.GenConfig{
			Horizon:   d,
			MIDs:      mids,
			Crashable: crashable,
			Segments:  pcfg.segments,
		})
		if data, err := gen.Encode(); err == nil {
			fmt.Printf("chaos plan (replay with -faultplan):\n%s\n\n", data)
		}
		plan.Events = append(plan.Events, gen.Events...)
	}
	opts := []soda.Option{soda.WithSeed(seed)}
	if pcfg.segments > 1 {
		topo := soda.StarTopology(pcfg.segments)
		topo.ForwardDelay = pcfg.forwardDelay
		opts = append(opts, soda.WithTopology(topo))
	}
	if pcfg.parworkers > 1 {
		opts = append(opts, soda.WithParallelSim(pcfg.parworkers))
	}
	if fcfg.loss > 0 {
		opts = append(opts, soda.WithLoss(fcfg.loss))
	}
	if len(plan.Events) > 0 {
		opts = append(opts, soda.WithFaultPlan(plan))
	}
	if fcfg.check || fcfg.loss > 0 || len(plan.Events) > 0 {
		opts = append(opts, soda.WithInvariantChecks())
	}
	if ocfg.traceFile != "" {
		ocfg.tracer = obs.NewTracerWith(obs.TraceConfig{Wire: ocfg.traceWire})
		opts = append(opts, soda.WithTracer(ocfg.tracer))
	}
	if ocfg.metrics {
		ocfg.registry = obs.NewRegistry()
		opts = append(opts, soda.WithMetrics(ocfg.registry))
	}
	nw := soda.NewNetwork(opts...)
	if traceAll {
		nw.Trace(os.Stdout)
	}
	return nw, nil
}

// exportObs writes the Chrome trace file and prints the metrics digest,
// whichever the flags asked for.
func exportObs() error {
	if ocfg.tracer != nil {
		f, err := os.Create(ocfg.traceFile)
		if err != nil {
			return err
		}
		if err := ocfg.tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\ntrace: %d request spans written to %s (load in ui.perfetto.dev)\n",
			len(ocfg.tracer.Spans()), ocfg.traceFile)
	}
	if ocfg.registry != nil {
		fmt.Println("\nmetrics:")
		ocfg.registry.WriteSummary(os.Stdout)
	}
	return nil
}

// report prints the invariant checker's verdict and turns violations into a
// non-zero exit. Requests still in flight at the cutoff are listed but not
// fatal: the run stops mid-conversation by design.
func report(nw *soda.Network) error {
	if err := exportObs(); err != nil {
		return err
	}
	if st := nw.ParStats(); pcfg.parworkers > 1 && !st.FallbackSequential {
		fmt.Printf("\nparallel: %d workers, %d windows (%d exclusive steps), %d committed / %d staged events, %d gated ops\n",
			st.Workers, st.Windows, st.ExclusiveSteps, st.Committed, st.Staged, st.GatedOps)
	}
	ch := nw.Invariants()
	if ch == nil {
		return nil
	}
	frames, corrupted := ch.Frames()
	fmt.Printf("\ninvariants: %d requests tracked, %d frames delivered (%d corrupted)\n",
		ch.Requests(), frames, corrupted)
	if u := ch.Unresolved(); len(u) > 0 {
		fmt.Printf("invariants: %d requests still in flight at cutoff\n", len(u))
	}
	if v := ch.Finish(); len(v) > 0 {
		for _, s := range v {
			fmt.Println("  VIOLATION:", s)
		}
		return fmt.Errorf("%d invariant violations", len(v))
	}
	fmt.Println("invariants: all green")
	return nil
}

func runPhilosophers(seed int64, d time.Duration) error {
	ring := []soda.MID{2, 3, 4, 5, 6}
	nw, err := newNetwork(seed, d,
		[]soda.MID{1, 2, 3, 4, 5, 6, 7},
		[]faults.CrashTarget{{Node: 7, Program: "detector"}})
	if err != nil {
		return err
	}
	defer nw.Close() // end the run's parked processes once it is reported
	nw.Register("timesrv", timesrv.Program(16))
	nw.MustAddNode(1)
	nw.MustBoot(1, "timesrv")
	meals := make([]int, len(ring))
	for i, mid := range ring {
		i := i
		left := ring[(i-1+len(ring))%len(ring)]
		name := fmt.Sprintf("phil%d", i)
		nw.Register(name, philo.Philosopher(left, 0, 50*time.Millisecond, 30*time.Millisecond,
			func(c *soda.Client, meal int) {
				meals[i] = meal
				fmt.Printf("t=%8v  philosopher %d finished meal %d\n", c.Now(), i, meal)
			}))
		nw.MustAddNode(mid)
		nw.MustBoot(mid, name)
	}
	nw.Register("detector", philo.Detector(ring, 200*time.Millisecond, func(v soda.MID) {
		fmt.Printf("            *** deadlock detected; philosopher on machine %d gives back its fork ***\n", v)
	}))
	nw.MustAddNode(7)
	nw.MustBoot(7, "detector")
	if err := nw.Run(d); err != nil {
		return err
	}
	fmt.Printf("\nafter %v of virtual time, meals eaten: %v\n", d, meals)
	return report(nw)
}

func runFileServer(seed int64, d time.Duration) error {
	nw, err := newNetwork(seed, d,
		[]soda.MID{1, 2},
		[]faults.CrashTarget{{Node: 1, Program: "fs"}})
	if err != nil {
		return err
	}
	defer nw.Close() // end the run's parked processes once it is reported
	nw.Register("fs", fileserver.Server(map[string][]byte{
		"motd": []byte("welcome to the SODA file service"),
	}, 32))
	nw.Register("client", soda.Program{
		Task: func(c *soda.Client) {
			srv, ok := fileserver.Find(c)
			if !ok {
				fmt.Println("no file server found")
				return
			}
			fmt.Printf("t=%8v  discovered file server on machine %d\n", c.Now(), srv)
			f, err := fileserver.Open(c, srv, "motd")
			if err != nil {
				fmt.Println("open:", err)
				return
			}
			data, _ := f.Read(64)
			fmt.Printf("t=%8v  read %q\n", c.Now(), data)
			g, _ := fileserver.Open(c, srv, "journal")
			_ = g.Write([]byte("first entry"))
			_ = g.Seek(0)
			back, _ := g.Read(64)
			fmt.Printf("t=%8v  wrote and re-read %q\n", c.Now(), back)
			_ = g.Close()
			_ = f.Close()
			fmt.Printf("t=%8v  session closed\n", c.Now())
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "fs")
	nw.MustBoot(2, "client")
	if err := nw.Run(d); err != nil {
		return err
	}
	return report(nw)
}

func runBoot(seed int64, d time.Duration) error {
	nw, err := newNetwork(seed, d, []soda.MID{1, 2}, nil)
	if err != nil {
		return err
	}
	defer nw.Close() // end the run's parked processes once it is reported
	nw.Register("child", soda.Program{
		Init: func(c *soda.Client, parent soda.MID) {
			fmt.Printf("t=%8v  child booted on machine %d (parent %d)\n", c.Now(), c.MID(), parent)
		},
		Task: func(c *soda.Client) {
			for {
				c.Hold(100 * time.Millisecond)
			}
		},
	})
	nw.Register("parent", soda.Program{
		Task: func(c *soda.Client) {
			free := c.DiscoverAll(soda.BootPattern, 4)
			fmt.Printf("t=%8v  free machines: %v\n", c.Now(), free)
			if len(free) == 0 {
				return
			}
			loadPat, err := soda.BootRemote(c, free[0], soda.BootPattern, "child")
			if err != nil {
				fmt.Println("boot failed:", err)
				return
			}
			fmt.Printf("t=%8v  child started; load pattern %v held as kill capability\n", c.Now(), loadPat)
			c.Hold(500 * time.Millisecond)
			if soda.KillChild(c, free[0], loadPat) {
				fmt.Printf("t=%8v  child killed via the load pattern\n", c.Now())
			}
			again := c.DiscoverAll(soda.BootPattern, 4)
			fmt.Printf("t=%8v  machine bootable again: %v\n", c.Now(), again)
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "parent")
	if err := nw.Run(d); err != nil {
		return err
	}
	return report(nw)
}

func runCrash(seed int64, d time.Duration) error {
	nw, err := newNetwork(seed, d, []soda.MID{1, 2}, nil)
	if err != nil {
		return err
	}
	defer nw.Close() // end the run's parked processes once it is reported
	pat := soda.WellKnownPattern(0o42)
	nw.Register("server", soda.Program{
		Init: func(c *soda.Client, _ soda.MID) { _ = c.Advertise(pat) },
		// Never accepts: the request sits delivered until the crash.
	})
	nw.Register("client", soda.Program{
		Task: func(c *soda.Client) {
			fmt.Printf("t=%8v  issuing request to the (soon to crash) server\n", c.Now())
			res := c.BSignal(soda.ServerSig{MID: 2, Pattern: pat}, soda.OK)
			fmt.Printf("t=%8v  request completed with status %v (probes detected the crash)\n", c.Now(), res.Status)
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(2, "server")
	nw.MustBoot(1, "client")
	nw.At(300*time.Millisecond, func() {
		fmt.Printf("t=%8v  *** server machine crashes ***\n", 300*time.Millisecond)
		nw.Node(2).Crash()
	})
	if err := nw.Run(d); err != nil {
		return err
	}
	return report(nw)
}
