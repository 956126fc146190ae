package conformance

import (
	"fmt"
	"strings"
	"testing"

	"soda"
	"soda/internal/golden"
	"soda/scenario"
)

// scenarios lists the catalogue's count-based entries: the ones both
// backends run to the same completion point, whatever their clock speed.
func scenarios() []scenario.Scenario {
	var out []scenario.Scenario
	for _, name := range scenario.Names() {
		sc, _ := scenario.Lookup(name)
		if sc.Build(sc.Nodes, sc.Limit, nil).Counted() {
			out = append(out, sc)
		}
	}
	return out
}

// runSim executes one count-based entry on the simulated bus — until
// every Done node reports completion, then its semantic Check — and
// returns its neutral transcript.
func runSim(sc scenario.Scenario, seed int64) (*Transcript, error) {
	run := sc.Build(sc.Nodes, sc.Limit, nil)
	rec := &Recorder{}
	nw := soda.NewNetwork(soda.WithSeed(seed))
	nw.Subscribe(soda.Subscriber{Kernel: rec.Observe})
	run.Install(nw)
	if err := run.Drive(nw, sc.Limit); err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
	}
	return Project(rec.Events()), nil
}

// TestGoldenSim pins each scenario's simulated neutral transcript to a
// committed fixture: ordering regressions in the kernel, transport, or
// scenario programs show up as a fixture diff without opening a single
// socket. Regenerate deliberately with: go test ./conformance/ -update
func TestGoldenSim(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tr, err := runSim(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, sc.Name, tr.Render())
		})
	}
}

// TestSimDeterminism pins that two sim runs of every scenario produce
// byte-identical neutral transcripts: the golden comparison above is only
// meaningful if the left-hand side never wobbles.
func TestSimDeterminism(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			a, err := runSim(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runSim(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if d := golden.Diff(a.Render(), b.Render()); d != "" {
				t.Errorf("two identical sim runs diverged at %s", d)
			}
		})
	}
}

// TestCompareSelf pins that a transcript is admissible against itself.
func TestCompareSelf(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tr, err := runSim(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if reports := Compare(tr, tr, nil); len(reports) != 0 {
				t.Errorf("self-comparison produced %d divergences:\n%s",
					len(reports), strings.Join(reports, "\n"))
			}
		})
	}
}

// TestCompareReportsDivergences pins the minimized divergence reports:
// each kind of mismatch is reported once, with the closest chain of the
// other backend, and elastic patterns are forgiven.
func TestCompareReportsDivergences(t *testing.T) {
	elastic := soda.WellKnownPattern(0o77)
	chain := func(broadcast bool, p soda.Pattern, events ...string) Chain {
		return Chain{Node: 1, Broadcast: broadcast, Pattern: p, Events: events}
	}
	sim := &Transcript{Nodes: map[soda.MID]*NodeTranscript{1: {
		Lifecycle: []string{"advertise %1"},
		Chains: []Chain{
			chain(false, 0, "issue 2:%1", "complete OK"),
			chain(true, 0, "issue *:%1"),
			chain(false, elastic, "issue 2:%77"),
		},
	}}}
	sock := &Transcript{Nodes: map[soda.MID]*NodeTranscript{
		1: {
			Lifecycle: []string{"advertise %1", "die"},
			Chains: []Chain{
				chain(false, 0, "issue 2:%1", "complete CRASHED"),
				chain(true, 0, "issue *:%2"),
			},
		},
		2: {Chains: []Chain{{Node: 2, Events: []string{"arrival %1"}}}},
	}}
	got := strings.Join(Compare(sim, sock, []soda.Pattern{elastic}), "\n")
	for _, want := range []string{
		`node 1: lifecycle diverges at position 1: sim "(end)" vs socket "die"`,
		"node 1: sim-only request chain",
		"closest match diverges after 1 shared events",
		"node 1: socket-only request chain",
		"node 1: sim-only DISCOVER chain [issue *:%1]",
		"node 1: socket-only DISCOVER chain [issue *:%2]",
		"node 2: socket-only request chain",
		"no chain of this shape on the other backend",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("reports lack %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "%77") {
		t.Errorf("an elastic chain was reported:\n%s", got)
	}
}
