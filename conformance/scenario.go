package conformance

import (
	"fmt"
	"time"

	"soda"
	"soda/internal/sortediter"
)

// NodeSpec places one machine in a scenario.
type NodeSpec struct {
	MID soda.MID
	// Boot names the program started on the node ("" = free, bootable
	// machine).
	Boot string
	// Done reports whether this node's part of the scenario has finished.
	// nil marks a pure server: it is done when every Done node is. On a
	// socket run the predicate is evaluated on the node's own driver
	// goroutine, so it must only read state written by this node's
	// programs.
	Done func() bool
}

// Run is one scenario instance: fresh program closures and completion
// state, built per backend per run.
type Run struct {
	// Programs is the registry every node can boot from.
	Programs map[string]soda.Program
	// Nodes lists the machines, in MID order.
	Nodes []NodeSpec
	// Elastic lists service patterns whose request volume is
	// timing-driven by design (periodic probes, rendezvous retries);
	// their chains are excluded from cross-backend comparison and covered
	// by Check instead.
	Elastic []soda.Pattern
	// Check asserts the scenario's semantic outcome after the run (all
	// meals eaten, file contents round-tripped, ...). It runs after the
	// network has stopped.
	Check func() error
}

// Scenario is a registered conformance scenario. Build returns a fresh
// Run — scenarios are count-based (a fixed number of exchanges, meals,
// rounds), never horizon-based, so both backends run them to the same
// completion point regardless of clock speed.
type Scenario struct {
	Name string
	// MaxVirtual bounds the simulated leg; MaxWall bounds the socket leg.
	MaxVirtual time.Duration
	MaxWall    time.Duration
	Build      func() *Run
}

// registry is populated by scenarios.go's init.
var registry []Scenario

// Scenarios lists every registered conformance scenario.
func Scenarios() []Scenario { return registry }

// register adds a scenario (init-time only).
func register(s Scenario) {
	if s.MaxVirtual == 0 {
		s.MaxVirtual = 30 * time.Second
	}
	if s.MaxWall == 0 {
		s.MaxWall = 30 * time.Second
	}
	registry = append(registry, s)
}

// registerPrograms installs a Run's registry on a network in name order.
func registerPrograms(nw *soda.Network, run *Run) {
	for _, name := range sortediter.Keys(run.Programs) {
		nw.Register(name, run.Programs[name])
	}
}

// allDone reports whether every Done node has finished.
func allDone(run *Run) bool {
	for _, ns := range run.Nodes {
		if ns.Done != nil && !ns.Done() {
			return false
		}
	}
	return true
}

// RunSim executes one scenario on the simulated bus and returns its
// neutral transcript. The run steps virtual time until every Done node
// reports completion (stepping granularity does not affect the event
// stream — RunUntil fires the same timers in the same order), then
// applies the scenario's semantic Check.
func RunSim(sc Scenario, seed int64) (*Transcript, error) {
	run := sc.Build()
	rec := &Recorder{}
	nw := soda.NewNetwork(soda.WithSeed(seed))
	nw.Subscribe(soda.Subscriber{Kernel: rec.Observe})
	registerPrograms(nw, run)
	for _, ns := range run.Nodes {
		nw.MustAddNode(ns.MID)
	}
	for _, ns := range run.Nodes {
		if ns.Boot != "" {
			nw.MustBoot(ns.MID, ns.Boot)
		}
	}
	const step = 10 * time.Millisecond
	for !allDone(run) {
		if nw.Now() >= sc.MaxVirtual {
			return nil, fmt.Errorf("conformance: %s did not complete within %v of virtual time", sc.Name, sc.MaxVirtual)
		}
		if err := nw.Run(step); err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
		}
	}
	if run.Check != nil {
		if err := run.Check(); err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
		}
	}
	return Project(rec.Events()), nil
}
