package lint

import (
	"strings"
	"testing"
)

const netxPath = "soda/internal/netx"

// zonePass runs InRealtimeZone over pkg and returns its verdict and the
// findings it reported.
func zonePass(pkg *Package) (bool, []Diagnostic) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: &Analyzer{Name: "zonecheck"},
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		diags:    &diags,
	}
	return InRealtimeZone(pass), diags
}

func TestCollectZoneSites(t *testing.T) {
	src := `package netx

//lint:zone realtime (wall-clock pacing is the job)

//lint:zone realtime bare-word-is-not-a-reason

//lint:zone

//lint:zone other ( spaced reason )
`
	sites := CollectZoneSites(parsePkgAt(t, netxPath, src))
	want := []struct{ name, reason string }{
		{"realtime", "wall-clock pacing is the job"},
		{"realtime", ""},
		{"other", "spaced reason"},
	}
	if len(sites) != len(want) {
		t.Fatalf("got %d zone sites, want %d (a nameless directive declares nothing): %+v", len(sites), len(want), sites)
	}
	for i, w := range want {
		if sites[i].Name != w.name || sites[i].Reason != w.reason {
			t.Errorf("site %d = %q (%q), want %q (%q)", i, sites[i].Name, sites[i].Reason, w.name, w.reason)
		}
	}
	if sites[0].Pos.Line != 3 {
		t.Errorf("first site on line %d, want 3", sites[0].Pos.Line)
	}
}

func TestInRealtimeZone(t *testing.T) {
	good := "package netx\n\n//lint:zone realtime (socket goroutines and wall pacing)\n"
	cases := []struct {
		name, path, src string
		active          bool
		finding         string // substring of the one expected finding; "" for none
	}{
		{"eligible and reasoned", netxPath, good, true, ""},
		{"ineligible package", "soda/internal/sim", good, false, "not eligible"},
		{"missing reason", netxPath, "package netx\n\n//lint:zone realtime\n", false, "non-empty (reason)"},
		{"unknown zone", netxPath, "package netx\n\n//lint:zone turbo (fast)\n", false, "unknown lint zone"},
		{"no declaration", netxPath, "package netx\n", false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := parsePkgAt(t, tc.path, tc.src)
			active, diags := zonePass(pkg)
			if active != tc.active {
				t.Errorf("InRealtimeZone = %v, want %v", active, tc.active)
			}
			if tc.finding == "" {
				if len(diags) != 0 {
					t.Errorf("unexpected findings: %v", diags)
				}
			} else if len(diags) != 1 || !strings.Contains(diags[0].Message, tc.finding) {
				t.Errorf("findings = %v, want one containing %q", diags, tc.finding)
			} else if diags[0].Analyzer != "zonecheck" {
				t.Errorf("finding attributed to %q, want the calling analyzer", diags[0].Analyzer)
			}
			// The finding-free twin agrees on every input.
			if got := RealtimeZoneActive(pkg); got != tc.active {
				t.Errorf("RealtimeZoneActive = %v, want %v", got, tc.active)
			}
		})
	}
}
