package bench

import (
	"bytes"
	"testing"
)

// TestMeasureLossyWindowShape runs a miniature lossy sweep and checks the
// structural invariants of the artifact: one row per (loss, window) cell,
// window 1 labelled "stopwait" and deeper windows "selective", every 0%
// row is its own slowdown baseline, and loss only ever costs time.
func TestMeasureLossyWindowShape(t *testing.T) {
	s := MeasureLossyWindow(3000, 8, []int{1, 4}, []int{0, 15})
	if s.Bytes != 3000 || s.Ops != 8 {
		t.Fatalf("sweep header wrong: %+v", s)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(s.Rows))
	}
	for _, c := range []struct {
		w    int
		mode string
	}{{1, "stopwait"}, {4, "selective"}} {
		w, mode := c.w, c.mode
		clean, lossy := s.Row(0, w), s.Row(15, w)
		if clean == nil || lossy == nil {
			t.Fatalf("missing window %d rows: %+v", w, s.Rows)
		}
		if clean.Mode != mode || lossy.Mode != mode {
			t.Errorf("window %d rows labelled %q/%q, want %q", w, clean.Mode, lossy.Mode, mode)
		}
		if clean.SlowdownVsClean != 1 {
			t.Errorf("%s 0%% row slowdown %.2f, want 1", mode, clean.SlowdownVsClean)
		}
		if lossy.PerOpUS < clean.PerOpUS || lossy.SlowdownVsClean < 1 {
			t.Errorf("%s got faster under loss: %+v vs %+v", mode, lossy, clean)
		}
	}
	if lossy := s.Row(15, 4); lossy.SackBlocksSent == 0 {
		t.Error("windowed cell under loss sent no SACK blocks")
	}
	if lossy := s.Row(15, 1); lossy.FragRetransmits != 0 || lossy.SackBlocksSent != 0 {
		t.Error("stop-and-wait cell counted windowed recovery work")
	}
	if s.Row(15, 8) != nil {
		t.Fatal("Row found a cell that was never measured")
	}
}

// TestLossySweepRoundTrip: Write → ReadLossySweep is the identity on the
// BENCH_lossywindow.json format.
func TestLossySweepRoundTrip(t *testing.T) {
	s := MeasureLossyWindow(2100, 5, []int{1, 2}, []int{0, 30})
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLossySweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(s.Rows) || back.Description != s.Description || back.Seed != s.Seed {
		t.Fatalf("round trip changed the sweep: %+v", back)
	}
	for i := range s.Rows {
		if back.Rows[i] != s.Rows[i] {
			t.Fatalf("row %d changed: %+v vs %+v", i, back.Rows[i], s.Rows[i])
		}
	}
}

// TestLossySweepCheckViolations pins each gate in Check against doctored
// artifacts, so the CI job actually fails when a claim breaks.
func TestLossySweepCheckViolations(t *testing.T) {
	mk := func() LossySweep {
		return LossySweep{Rows: []LossyRow{
			{LossPct: 0, Window: 1, Mode: "stopwait", PerOpUS: 180, SlowdownVsClean: 1},
			{LossPct: 15, Window: 1, Mode: "stopwait", PerOpUS: 300, SlowdownVsClean: 1.7},
			{LossPct: 30, Window: 1, Mode: "stopwait", PerOpUS: 550, SlowdownVsClean: 3.1},
			{LossPct: 0, Window: 8, Mode: "selective", PerOpUS: 100, SlowdownVsClean: 1},
			{LossPct: 15, Window: 8, Mode: "selective", PerOpUS: 150, SlowdownVsClean: 1.5},
			{LossPct: 30, Window: 8, Mode: "selective", PerOpUS: 250, SlowdownVsClean: 2.5},
		}}
	}
	if errs := mk().Check(); len(errs) != 0 {
		t.Fatalf("healthy sweep failed its own gates: %v", errs)
	}
	cases := []struct {
		name   string
		doctor func(*LossySweep)
	}{
		{"windowed degraded past 2x at 15%", func(s *LossySweep) {
			s.Row(15, 8).SlowdownVsClean = 2.6
		}},
		{"windowed lost to stop-and-wait under loss", func(s *LossySweep) {
			s.Row(30, 8).PerOpUS = 600
		}},
		{"windowed only tied stop-and-wait on a clean wire", func(s *LossySweep) {
			s.Row(0, 8).PerOpUS = 180
		}},
		{"missing stop-and-wait row", func(s *LossySweep) {
			s.Rows = append(s.Rows[:2], s.Rows[3:]...)
		}},
	}
	for _, tc := range cases {
		s := mk()
		tc.doctor(&s)
		if errs := s.Check(); len(errs) == 0 {
			t.Errorf("%s: Check reported no violation", tc.name)
		}
	}
}

// TestLossySweepDefaultGates is the acceptance pin: the standard sweep at
// its committed scale must pass every Check gate — the windowed engine
// within 2x of lossless at 15% loss, and ahead of stop-and-wait in every
// cell.
func TestLossySweepDefaultGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep in -short mode")
	}
	s := MeasureLossyWindow(0, 0, nil, nil)
	for _, err := range s.Check() {
		t.Error(err)
	}
}
