// Package sweep runs matrices of independent deterministic simulations —
// every combination of scenario seed, generated fault-plan seed, and node
// count — and merges the results into one aggregate report.
//
// The engine shards runs across host worker goroutines (sim.ParallelFor,
// the tree's one sanctioned concurrency zone) while keeping each run a
// completely isolated simulation: its own kernel, bus, nodes, fault plan
// and observers. Results are merged by run key, never by completion order,
// so a parallel sweep is byte-identical to a sequential sweep of the same
// matrix — concurrency across runs, determinism within each. The test
// battery in sweep_test.go and metamorphic_test.go pins exactly that.
package sweep

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"time"

	"soda"
	"soda/faults"
	"soda/internal/deltat"
	"soda/internal/sim"
	"soda/obs"
	"soda/scenario"
)

// Spec describes a sweep matrix: the cross product of Seeds × PlanSeeds ×
// Nodes for one scenario. The zero values of the optional fields mean
// "fault-free" (PlanSeeds) and "bare" (Instrument, Checks).
type Spec struct {
	// Scenario names a scenario catalogue entry (scenario.Names).
	Scenario string `json:"scenario"`
	// Seeds are the simulation seeds; one run per seed per cell.
	Seeds []int64 `json:"seeds"`
	// PlanSeeds seed faults.Generate for each run's fault plan. Plan seed
	// 0 is special: no fault plan at all (the fault-free column every
	// sweep should keep as its control).
	PlanSeeds []int64 `json:"plan_seeds"`
	// Nodes lists the network sizes to sweep.
	Nodes []int `json:"nodes"`
	// Horizon is the virtual-time extent of every run.
	Horizon time.Duration `json:"horizon_ns"`
	// Instrument attaches an obs.Tracer and obs.Registry to every run and
	// records a per-run Profile. The metamorphic battery pins that this
	// never changes a run's trace hash.
	Instrument bool `json:"instrument,omitempty"`
	// Checks arms the faults invariant checkers on every run; violations
	// land in RunResult.Violations.
	Checks bool `json:"checks,omitempty"`
	// Window sets the transport's sliding-window depth on every node
	// (deltat.Config.Window, DESIGN.md §11). Zero or one is the
	// paper-faithful stop-and-wait transport; the metamorphic battery pins
	// that Window<=1 sweeps hash identically to pre-window builds. The
	// transport clamps the depth to deltat.MaxWindowMessages, so Keys
	// rejects anything outside [0, that]: the report echoes this field and
	// must not name a window that never ran.
	Window int `json:"window,omitempty"`
	// Segments splits every run's network into a star internetwork of this
	// many gateway-joined bus segments (DESIGN.md §13); nodes land on
	// segment mid % Segments. 0 or 1 is the classic single shared bus —
	// the metamorphic battery pins that those sweeps hash identically to
	// pre-topology builds.
	Segments int `json:"segments,omitempty"`
	// ForwardDelay sets the gateways' store-and-forward latency (the
	// conservative lookahead for parallel intra-run execution, DESIGN.md
	// §15). Zero keeps today's immediate forwarding; required positive
	// when ParWorkers > 1.
	ForwardDelay time.Duration `json:"forward_delay_ns,omitempty"`
	// ParWorkers > 1 executes each run's bus segments in parallel via
	// soda.WithParallelSim (conservative intra-run parallelism, DESIGN.md
	// §15); <= 1 is the plain sequential scheduler. Orthogonal to the
	// sweep's own cross-run workers: the metamorphic battery pins that
	// neither axis changes a single trace hash. With generated chaos
	// plans (PlanSeeds), Segments also scopes some window faults to
	// single segments, exercising the shard-routed fault paths.
	ParWorkers int `json:"par_workers,omitempty"`
}

// RunKey identifies one cell of the matrix. Report order is the key order:
// scenario, then node count, then seed, then plan seed.
type RunKey struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Seed     int64  `json:"seed"`
	PlanSeed int64  `json:"plan_seed"`
}

func (k RunKey) String() string {
	return fmt.Sprintf("%s/n%d/seed%d/plan%d", k.Scenario, k.Nodes, k.Seed, k.PlanSeed)
}

func (k RunKey) less(o RunKey) bool {
	if k.Scenario != o.Scenario {
		return k.Scenario < o.Scenario
	}
	if k.Nodes != o.Nodes {
		return k.Nodes < o.Nodes
	}
	if k.Seed != o.Seed {
		return k.Seed < o.Seed
	}
	return k.PlanSeed < o.PlanSeed
}

// RunResult is the deterministic record of one run. Every field derives
// from virtual time and the seeded simulation alone — no wall-clock data
// belongs here, so sequential and parallel sweeps can be compared byte for
// byte.
type RunResult struct {
	Key RunKey `json:"key"`
	// TraceHash is the FNV-64a hash of the run's frame log (the same
	// per-transmission lines Network.Trace writes), in hex.
	TraceHash string `json:"trace_hash"`
	// VirtualUS is the virtual clock at the end of the run.
	VirtualUS int64 `json:"virtual_us"`
	// Wire counters, always collected (they come from bus stats).
	FramesSent      uint64 `json:"frames_sent"`
	FramesLost      uint64 `json:"frames_lost"`
	Retransmissions uint64 `json:"retransmissions"`
	// Violations and Unresolved report the invariant checkers' verdict
	// (Spec.Checks only).
	Violations []string `json:"violations,omitempty"`
	Unresolved int      `json:"unresolved,omitempty"`
	// Profile is the run's full observability profile (Spec.Instrument
	// only); byte-deterministic like everything else here.
	Profile *obs.Profile `json:"profile,omitempty"`
	// Err records a run that failed: an event-limit blowout, or a
	// count-based entry that missed its horizon or its Check. The sweep
	// still reports every other cell.
	Err string `json:"error,omitempty"`
}

// Digest summarizes one statistic across the runs of a sweep. Percentiles
// are nearest-rank over the sorted per-run values.
type Digest struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

func digest(vals []float64) Digest {
	if len(vals) == 0 {
		return Digest{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Digest{
		Count: len(sorted),
		Min:   sorted[0],
		P50:   rank(0.50),
		P90:   rank(0.90),
		P99:   rank(0.99),
		Max:   sorted[len(sorted)-1],
		Mean:  sum / float64(len(sorted)),
	}
}

// Aggregate summarizes the whole matrix: wire-level digests always, and
// cross-run REQUEST latency digests when the sweep was instrumented (each
// run contributes its own p50/p90/p99, and the digest spreads those across
// the matrix).
type Aggregate struct {
	Runs            int    `json:"runs"`
	Failed          int    `json:"failed,omitempty"`
	TotalViolations int    `json:"total_violations,omitempty"`
	FramesSent      Digest `json:"frames_sent"`
	Retransmissions Digest `json:"retransmissions"`
	RequestP50US    Digest `json:"request_p50_us"`
	RequestP90US    Digest `json:"request_p90_us"`
	RequestP99US    Digest `json:"request_p99_us"`
}

// Report is the merged outcome of a sweep, ordered by run key. Its JSON
// form is byte-deterministic: same Spec, same Report, regardless of worker
// count or completion order.
type Report struct {
	Spec      Spec        `json:"spec"`
	Runs      []RunResult `json:"runs"`
	Aggregate Aggregate   `json:"aggregate"`
}

// Write emits the report as indented JSON (deterministic: encoding/json
// sorts map keys, and Runs is key-ordered).
func (r *Report) Write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Keys expands the spec's matrix in report order, validating it first.
func (s Spec) Keys() ([]RunKey, error) {
	sc, err := scenario.Lookup(s.Scenario)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if len(s.Seeds) == 0 || len(s.Nodes) == 0 {
		return nil, fmt.Errorf("sweep: empty matrix: need at least one seed and one node count")
	}
	if s.Horizon <= 0 {
		return nil, fmt.Errorf("sweep: horizon must be positive")
	}
	if s.Window < 0 || s.Window > deltat.MaxWindowMessages {
		return nil, fmt.Errorf("sweep: window must be in [0, %d], got %d", deltat.MaxWindowMessages, s.Window)
	}
	if s.Segments < 0 {
		return nil, fmt.Errorf("sweep: segments must be >= 0, got %d", s.Segments)
	}
	if s.ForwardDelay < 0 {
		return nil, fmt.Errorf("sweep: forward delay must be >= 0, got %v", s.ForwardDelay)
	}
	if s.ParWorkers > 1 && (s.Segments < 2 || s.ForwardDelay <= 0) {
		return nil, fmt.Errorf("sweep: par_workers %d needs segments >= 2 and a positive forward delay (the parallel lookahead)", s.ParWorkers)
	}
	planSeeds := s.PlanSeeds
	if len(planSeeds) == 0 {
		planSeeds = []int64{0}
	}
	for _, ps := range planSeeds {
		if ps != 0 && s.Horizon < time.Second {
			return nil, fmt.Errorf("sweep: horizon %v too short for generated fault plans (need >= 1s)", s.Horizon)
		}
	}
	var keys []RunKey
	for _, n := range s.Nodes {
		if err := sc.Fits(n); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		for _, seed := range s.Seeds {
			for _, ps := range planSeeds {
				keys = append(keys, RunKey{Scenario: s.Scenario, Nodes: n, Seed: seed, PlanSeed: ps})
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys, nil
}

// Run executes the matrix across the given number of workers (<= 1 means
// strictly sequential, with no goroutines at all) and merges the results
// in key order. The report is independent of the worker count.
func Run(spec Spec, workers int) (*Report, error) {
	keys, err := spec.Keys()
	if err != nil {
		return nil, err
	}
	results := make([]RunResult, len(keys))
	sim.ParallelFor(workers, len(keys), func(i int) {
		results[i] = runOne(spec, keys[i])
	})
	rep := &Report{Spec: spec, Runs: results}
	rep.Aggregate = aggregate(results)
	return rep, nil
}

// runOne executes a single, fully isolated simulation.
func runOne(spec Spec, key RunKey) RunResult {
	sc, _ := scenario.Lookup(key.Scenario)
	run := sc.Build(key.Nodes, spec.Horizon, nil)
	opts := append(make([]soda.Option, 0, 8), soda.WithSeed(key.Seed))
	if spec.Segments > 1 {
		topo := soda.StarTopology(spec.Segments)
		topo.ForwardDelay = spec.ForwardDelay
		opts = append(opts, soda.WithTopology(topo))
	}
	if spec.ParWorkers > 1 {
		opts = append(opts, soda.WithParallelSim(spec.ParWorkers))
	}
	if spec.Window > 1 {
		opts = append(opts, soda.WithTransportWindow(spec.Window))
	}
	if key.PlanSeed != 0 {
		mids := make([]faults.MID, key.Nodes)
		for i := range mids {
			mids[i] = faults.MID(i + 1)
		}
		plan := faults.Generate(rand.New(rand.NewSource(key.PlanSeed)), faults.GenConfig{
			Horizon:  spec.Horizon,
			MIDs:     mids,
			Segments: spec.Segments,
		})
		opts = append(opts, soda.WithFaultPlan(plan))
	}
	if spec.Checks {
		opts = append(opts, soda.WithInvariantChecks())
	}
	var reg *obs.Registry
	if spec.Instrument {
		reg = obs.NewRegistry()
		opts = append(opts, soda.WithMetrics(reg), soda.WithTracer(obs.NewTracer()))
	}
	nw := soda.NewNetwork(opts...)
	h := fnv.New64a()
	nw.Trace(h)
	run.Install(nw)

	res := RunResult{Key: key}
	if err := run.Drive(nw, spec.Horizon); err != nil {
		res.Err = err.Error()
	}
	// The hash in hex, with no fmt argument to box: one allocation a run.
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	res.TraceHash = string(hex.AppendEncode(make([]byte, 0, 16), sum[:]))
	res.VirtualUS = nw.Now().Microseconds()
	st := nw.Stats()
	res.FramesSent = st.FramesSent
	res.FramesLost = st.FramesLost
	res.Retransmissions = st.Retransmissions
	if ch := nw.Invariants(); ch != nil {
		res.Violations = ch.Finish()
		res.Unresolved = len(ch.Unresolved())
	}
	if spec.Instrument {
		res.Profile = nw.Profile(key.String())
	}
	// Everything reported has been read; end the run's parked processes so
	// a long sweep does not accumulate them.
	_ = nw.Close()
	return res
}

func aggregate(runs []RunResult) Aggregate {
	agg := Aggregate{Runs: len(runs)}
	var sent, retrans, p50, p90, p99 []float64
	for i := range runs {
		r := &runs[i]
		if r.Err != "" {
			agg.Failed++
		}
		agg.TotalViolations += len(r.Violations)
		sent = append(sent, float64(r.FramesSent))
		retrans = append(retrans, float64(r.Retransmissions))
		if r.Profile != nil {
			if hs, ok := r.Profile.Primitives[obs.PrimRequest]; ok {
				p50 = append(p50, float64(hs.P50US))
				p90 = append(p90, float64(hs.P90US))
				p99 = append(p99, float64(hs.P99US))
			}
		}
	}
	agg.FramesSent = digest(sent)
	agg.Retransmissions = digest(retrans)
	agg.RequestP50US = digest(p50)
	agg.RequestP90US = digest(p90)
	agg.RequestP99US = digest(p99)
	return agg
}
