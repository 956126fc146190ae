// Command sodasim runs one entry of the scenario catalogue (package
// soda/scenario) and narrates what happens. A count-based entry runs until
// its sessions finish and its check passes; any other runs for -duration
// of virtual time. An entry that scales runs on its smallest layout.
//
//	sodasim -scenario dining         # dining philosophers + deadlock detector
//	sodasim -scenario fileservice    # remote file service session
//	sodasim -scenario bootkill       # remote boot / kill via reserved patterns
//	sodasim -scenario crash          # crash detection via probes
//	sodasim -seed 7 -duration 30s    # any scenario is deterministic per seed
//	sodasim -trace out.json -metrics # Chrome trace (Perfetto) + latency digests
//	sodasim -frames                  # print every frame on the bus
//
// Fault injection (-loss, -corrupt, -duplicate, -faultplan plan.json,
// -chaos for a plan generated from the seed, -check for none) arms the
// invariant checkers; the command exits non-zero on a violation.
//
// Real sockets (DESIGN.md §16): -net tcp runs the machine whose boot
// program is -role, one per OS process, over TCP. Two terminals:
//
//	sodasim -net tcp -scenario fileservice -role fs     -listen 127.0.0.1:7001 -peers 2=127.0.0.1:7002
//	sodasim -net tcp -scenario fileservice -role client -listen 127.0.0.1:7002 -peers 1=127.0.0.1:7001
//
// The peer map is explicit and symmetric: each process lists every other
// machine (the transport does not learn return routes). A machine with a
// session stops when it is done, a server once the network has been idle
// for a second or -duration of wall time has passed. -trace, -metrics and
// -frames work here too (timestamps are wall-clock time since the driver
// started); the simulator-only flags are rejected.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"soda"
	"soda/faults"
	"soda/obs"
	"soda/scenario"
)

func main() {
	s, err := open(parse(os.Args[1:]), os.Stdout)
	if err == nil {
		err = s.run()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sodasim: %v\n", err)
		os.Exit(1)
	}
}

// config holds the parsed flags; set names the ones given explicitly.
type config struct {
	scenario, traceFile, planFile, net, role, listen, peers string

	seed                     int64
	duration, forwardDelay   time.Duration
	frames, traceWire        bool
	metrics, chaos, check    bool
	loss, corrupt, duplicate float64
	segments, parworkers     int
	set                      map[string]bool
}

// rejects names, per backend, the flags only the other one honours.
var rejects = map[string][]string{
	"sim": {"role", "listen", "peers"},
	"tcp": {"loss", "corrupt", "duplicate", "faultplan", "chaos", "check", "segments", "forwarddelay", "parworkers"},
}

func parse(args []string) config {
	var c config
	fs := flag.NewFlagSet("sodasim", flag.ExitOnError)
	fs.StringVar(&c.scenario, "scenario", "dining", "scenario catalogue entry: "+strings.Join(scenario.Names(), ", "))
	fs.Int64Var(&c.seed, "seed", 1, "deterministic random seed")
	fs.DurationVar(&c.duration, "duration", 20*time.Second, "virtual run time (the cap of a count-based scenario; wall time with -net tcp)")
	fs.BoolVar(&c.frames, "frames", false, "print every frame on the bus")
	fs.StringVar(&c.traceFile, "trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	fs.BoolVar(&c.traceWire, "tracewire", false, "include per-frame wire events in the trace (bulky)")
	fs.BoolVar(&c.metrics, "metrics", false, "print per-primitive latency digests and node counters")
	fs.Float64Var(&c.loss, "loss", 0, "per-frame loss probability (0..1)")
	fs.Float64Var(&c.corrupt, "corrupt", 0, "per-frame corruption probability (0..1)")
	fs.Float64Var(&c.duplicate, "duplicate", 0, "per-frame duplication probability (0..1)")
	fs.StringVar(&c.planFile, "faultplan", "", "JSON fault plan to replay")
	fs.BoolVar(&c.chaos, "chaos", false, "generate a random fault plan from the seed")
	fs.BoolVar(&c.check, "check", false, "run the invariant checkers even without faults")
	fs.IntVar(&c.segments, "segments", 0, "star-internetwork segment count (<=1 = single shared bus)")
	fs.DurationVar(&c.forwardDelay, "forwarddelay", 2*time.Millisecond, "gateway store-and-forward delay; the conservative lookahead bound for -parworkers")
	fs.IntVar(&c.parworkers, "parworkers", 0, "intra-run parallel workers (needs -segments >= 2; <=1 = sequential)")
	fs.StringVar(&c.net, "net", "sim", "transport: sim (deterministic virtual time) or tcp (real sockets, wall time)")
	fs.StringVar(&c.role, "role", "", "-net tcp: which machine this process is, by its boot program (fileservice: fs or client)")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "-net tcp: listen address for peer connections")
	fs.StringVar(&c.peers, "peers", "", "-net tcp: comma-separated mid=host:port peer map")
	_ = fs.Parse(args)
	c.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c
}

// session is one run: the entry built for it, and the network (the whole
// layout on the simulator, the one -role machine on sockets).
type session struct {
	cfg     config
	out     io.Writer
	entry   scenario.Run
	node    scenario.Node // -net tcp: this process's machine
	nw      *soda.Network
	tracer  *obs.Tracer
	metrics *obs.Registry
}

// open validates the flags, builds the entry with a printer on out, and
// installs it into the network the flags describe, ready to run.
func open(cfg config, out io.Writer) (*session, error) {
	wrong, ok := rejects[cfg.net]
	if !ok {
		return nil, fmt.Errorf("-net %q: want sim or tcp", cfg.net)
	}
	for _, name := range wrong {
		if cfg.set[name] {
			return nil, fmt.Errorf("-%s does not apply to -net %s", name, cfg.net)
		}
	}
	sc, err := scenario.Lookup(cfg.scenario)
	if err != nil {
		return nil, err
	}
	say := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	s := &session{cfg: cfg, out: out, entry: sc.Build(sc.Nodes, cfg.duration, say)}
	if cfg.net == "sim" {
		if s.nw, err = s.network(); err == nil {
			s.entry.Install(s.nw)
		}
		return s, err
	}
	if s.entry.Schedule != nil {
		return nil, fmt.Errorf("scenario %q schedules simulator actions; it has no socket roles", sc.Name)
	}
	var roles []string
	for _, n := range s.entry.Nodes {
		if n.Boot != "" {
			roles = append(roles, n.Boot)
			if n.Boot == cfg.role {
				s.node = n
			}
		}
	}
	if s.node.MID == 0 {
		return nil, fmt.Errorf("scenario %q has no machine booting -role %q (roles: %s)", sc.Name, cfg.role, strings.Join(roles, ", "))
	}
	if s.nw, err = s.network(); err != nil {
		return nil, err
	}
	s.entry.Register(s.nw)
	s.nw.MustAddNode(s.node.MID)
	s.nw.MustBoot(s.node.MID, s.node.Boot)
	return s, nil
}

// network builds the network the flags describe, for either backend.
func (s *session) network() (*soda.Network, error) {
	cfg := s.cfg
	opts := []soda.Option{soda.WithSeed(cfg.seed)}
	if cfg.net == "tcp" {
		peers, err := parsePeers(cfg.peers)
		if err != nil {
			return nil, err
		}
		opts = append(opts, soda.WithSocketTransport(cfg.listen), soda.WithSocketPeers(peers))
	}
	var plan faults.Plan
	if cfg.planFile != "" {
		data, err := os.ReadFile(cfg.planFile)
		if err != nil {
			return nil, err
		}
		p, err := faults.Parse(data)
		if err != nil {
			return nil, err
		}
		plan.Events = p.Events
	}
	for _, ev := range []faults.Event{{Kind: faults.Corrupt, Prob: cfg.corrupt}, {Kind: faults.Duplicate, Prob: cfg.duplicate}} {
		if ev.Prob > 0 {
			plan.Events = append(plan.Events, ev)
		}
	}
	if cfg.chaos {
		var mids []soda.MID
		for _, n := range s.entry.Nodes {
			mids = append(mids, n.MID)
		}
		gen := faults.Generate(rand.New(rand.NewSource(cfg.seed)), faults.GenConfig{Horizon: cfg.duration, MIDs: mids, Segments: cfg.segments})
		if data, err := gen.Encode(); err == nil {
			fmt.Fprintf(s.out, "chaos plan (replay with -faultplan):\n%s\n\n", data)
		}
		plan.Events = append(plan.Events, gen.Events...)
	}
	if cfg.segments > 1 {
		topo := soda.StarTopology(cfg.segments)
		topo.ForwardDelay = cfg.forwardDelay
		opts = append(opts, soda.WithTopology(topo))
	}
	if cfg.parworkers > 1 {
		opts = append(opts, soda.WithParallelSim(cfg.parworkers))
	}
	if cfg.loss > 0 {
		opts = append(opts, soda.WithLoss(cfg.loss))
	}
	if len(plan.Events) > 0 {
		opts = append(opts, soda.WithFaultPlan(plan))
	}
	if cfg.check || cfg.loss > 0 || len(plan.Events) > 0 {
		opts = append(opts, soda.WithInvariantChecks())
	}
	if cfg.traceFile != "" {
		s.tracer = obs.NewTracerWith(obs.TraceConfig{Wire: cfg.traceWire})
		opts = append(opts, soda.WithTracer(s.tracer))
	}
	if cfg.metrics {
		s.metrics = obs.NewRegistry()
		opts = append(opts, soda.WithMetrics(s.metrics))
	}
	nw := soda.NewNetwork(opts...)
	if cfg.frames {
		nw.Trace(s.out)
	}
	return nw, nil
}

// parsePeers decodes a "mid=host:port,mid=host:port" peer map.
func parsePeers(s string) (map[soda.MID]string, error) {
	peers := make(map[soda.MID]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		mid, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -peers entry %q (want mid=host:port)", part)
		}
		id, err := strconv.ParseUint(mid, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad -peers MID %q: %v", mid, err)
		}
		peers[soda.MID(id)] = addr
	}
	return peers, nil
}

// run drives the session to its end and reports it. A simulated run
// follows the entry's stop rule and check; a socket run serves its one
// machine.
func (s *session) run() error {
	if s.cfg.net == "tcp" {
		return s.serve()
	}
	defer s.nw.Close() // end the run's parked processes once it is reported
	err := s.entry.Drive(s.nw, s.cfg.duration)
	if rerr := s.report(); err == nil {
		err = rerr
	}
	return err
}

// serve runs this process's machine over the socket transport: until its
// Done predicate holds, or — for a machine without one — until the network
// has been quiet for a second or the duration cap elapses.
func (s *session) serve() error {
	nw, node, d := s.nw, s.node, s.cfg.duration
	fmt.Fprintf(s.out, "%s: machine %d listening on %s\n", node.Boot, node.MID, nw.SocketAddr())
	nw.StartSocket(node.Done)
	if node.Done != nil {
		if !nw.WaitSocket(d) {
			nw.Close()
			return fmt.Errorf("%s did not finish within %v", node.Boot, d)
		}
	} else if nw.WaitSocketIdle(time.Second, d) {
		fmt.Fprintf(s.out, "%s: network idle; shutting down\n", node.Boot)
	} else {
		fmt.Fprintf(s.out, "%s: duration elapsed; shutting down\n", node.Boot)
	}
	if err := nw.Close(); err != nil {
		return fmt.Errorf("socket shutdown leaked: %v", err)
	}
	if err := nw.SocketErr(); err != nil {
		return err
	}
	return s.report()
}

// report exports the trace and metrics the flags ask for, then prints the
// invariant checker's verdict and turns violations into a non-zero exit.
// Requests still in flight at the cutoff are listed but not fatal: the run
// stops mid-conversation by design.
func (s *session) report() error {
	if s.tracer != nil {
		var buf bytes.Buffer
		if err := s.tracer.WriteChromeTrace(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(s.cfg.traceFile, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "\ntrace: %d request spans written to %s (load in ui.perfetto.dev)\n",
			len(s.tracer.Spans()), s.cfg.traceFile)
	}
	if s.metrics != nil {
		fmt.Fprintln(s.out, "\nmetrics:")
		s.metrics.WriteSummary(s.out)
	}
	if st := s.nw.ParStats(); s.cfg.parworkers > 1 && !st.FallbackSequential {
		fmt.Fprintf(s.out, "\nparallel: %d workers, %d windows (%d exclusive steps), %d committed / %d staged events, %d gated ops\n",
			st.Workers, st.Windows, st.ExclusiveSteps, st.Committed, st.Staged, st.GatedOps)
	}
	ch := s.nw.Invariants()
	if ch == nil {
		return nil
	}
	frames, corrupted := ch.Frames()
	fmt.Fprintf(s.out, "\ninvariants: %d requests tracked, %d frames delivered (%d corrupted)\n",
		ch.Requests(), frames, corrupted)
	if u := ch.Unresolved(); len(u) > 0 {
		fmt.Fprintf(s.out, "invariants: %d requests still in flight at cutoff\n", len(u))
	}
	if v := ch.Finish(); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintln(s.out, "  VIOLATION:", line)
		}
		return fmt.Errorf("%d invariant violations", len(v))
	}
	fmt.Fprintln(s.out, "invariants: all green")
	return nil
}
