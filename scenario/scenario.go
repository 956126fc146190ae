// Package scenario is the catalogue of SODA workloads: the source paper's
// §4.4 programs (file service, remote boot, dining philosophers, CSP
// rendezvous) and the sweep workloads built from them, each wired into a
// network once. The sweep engine, the sim-vs-socket conformance harness
// and both sodasim backends all read this one registry by name.
//
// An entry builds a fresh Run per call: the programs, the node layout,
// and whatever the run needs to stop and check itself. A Run whose
// layout has a Done node is count-based — it runs until every Done node
// has finished, so both backends reach the same completion point at
// whatever speed their clock moves. Any other Run is horizon-based: it
// runs for a fixed span of virtual time and winds itself down before the
// end.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"soda"
)

// Printer narrates a run's milestones (Printf-style, one line per call).
type Printer func(format string, args ...any)

// Node places one machine in a run.
type Node struct {
	MID soda.MID
	// Boot names the program started on the node ("" = free, bootable
	// machine).
	Boot string
	// Done reports whether this node's part of the run has finished; nil
	// marks a node that is done when every Done node is. On a socket run
	// the predicate is evaluated on the node's own driver goroutine, so it
	// must only read state written by this node's programs.
	Done func() bool
}

// Run is one instance of an entry: fresh program closures and completion
// state, built per network.
type Run struct {
	// Programs is the registry every node can boot from.
	Programs map[string]soda.Program
	// Nodes is the layout: every machine, in boot order.
	Nodes []Node
	// Elastic lists service patterns whose request volume is timing-driven
	// by design (periodic probes, rendezvous retries); conformance excludes
	// their chains from cross-backend comparison and relies on Check.
	Elastic []soda.Pattern
	// Check asserts the run's semantic outcome (meals eaten, file contents
	// round-tripped, ...) once the network has stopped.
	Check func() error
	// Schedule arms simulator-only timed actions (node kills and crashes)
	// after every node has booted. A Run with one has no socket roles.
	Schedule func(nw *soda.Network)
}

// Scenario is one catalogue entry.
type Scenario struct {
	Name string
	// Nodes is the entry's network size: the smallest it accepts when it
	// Scales, its only size otherwise.
	Nodes  int
	Scales bool
	// Limit bounds a count-based run of the entry, in virtual time on the
	// simulator and wall time on sockets.
	Limit time.Duration
	build func(n int, horizon time.Duration, say Printer) Run
}

// Build lays the entry out on n nodes for a run of the given horizon
// (horizon-based entries stop their clients short of it). say narrates
// milestones; nil keeps the run quiet. Every call returns fresh state, so
// concurrent calls are safe.
func (sc Scenario) Build(n int, horizon time.Duration, say Printer) Run {
	if err := sc.Fits(n); err != nil {
		panic(err)
	}
	if say == nil {
		say = func(string, ...any) {}
	}
	return sc.build(n, horizon, say)
}

// Fits reports whether the entry can be laid out on n nodes.
func (sc Scenario) Fits(n int) error {
	switch {
	case sc.Scales && n < sc.Nodes:
		return fmt.Errorf("scenario %q needs at least %d nodes, got %d", sc.Name, sc.Nodes, n)
	case !sc.Scales && n != sc.Nodes:
		return fmt.Errorf("scenario %q has a fixed layout of %d nodes, got %d", sc.Name, sc.Nodes, n)
	}
	return nil
}

// Names lists the catalogue's entries in sorted order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, sc := range catalogue {
		names[i] = sc.Name
	}
	sort.Strings(names)
	return names
}

// Lookup returns the entry called name.
func Lookup(name string) (Scenario, error) {
	for _, sc := range catalogue {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (have %v)", name, Names())
}

// Register installs the run's programs on nw.
func (r Run) Register(nw *soda.Network) {
	//lint:allow mapiterorder (Register only stores into the network's program map, which no order can change)
	for name, prog := range r.Programs {
		nw.Register(name, prog)
	}
}

// Install wires the run into a simulated network: its programs, every
// node, boots in layout order, then the scheduled actions.
func (r Run) Install(nw *soda.Network) {
	r.Register(nw)
	for _, n := range r.Nodes {
		nw.MustAddNode(n.MID)
	}
	for _, n := range r.Nodes {
		if n.Boot != "" {
			nw.MustBoot(n.MID, n.Boot)
		}
	}
	if r.Schedule != nil {
		r.Schedule(nw)
	}
}

// Counted reports whether the run is count-based.
func (r Run) Counted() bool {
	for _, n := range r.Nodes {
		if n.Done != nil {
			return true
		}
	}
	return false
}

// Done reports whether every Done node has finished.
func (r Run) Done() bool {
	for _, n := range r.Nodes {
		if n.Done != nil && !n.Done() {
			return false
		}
	}
	return true
}

// Drive runs an installed Run on a simulated network under its stop rule
// — until done, failing past d, when count-based; for d otherwise — and
// then applies its Check. Stepping a count-based run does not change its
// event stream: RunUntil fires the same timers in the same order.
func (r Run) Drive(nw *soda.Network, d time.Duration) error {
	if !r.Counted() {
		if err := nw.Run(d); err != nil {
			return err
		}
	} else {
		for !r.Done() {
			if nw.Now() >= d {
				return fmt.Errorf("did not complete within %v of virtual time", d)
			}
			if err := nw.Run(10 * time.Millisecond); err != nil {
				return err
			}
		}
	}
	if r.Check != nil {
		return r.Check()
	}
	return nil
}
