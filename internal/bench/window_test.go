package bench

import (
	"testing"
	"time"
)

// TestMeasureWindowSweep is the DESIGN.md §11 gate and the EXPERIMENTS.md
// E6 table: per-operation virtual time of a streaming pipelined 1000-word
// PUT at each transport window depth. Window 1 is the paper-faithful
// stop-and-wait transport and its time is pinned exactly (virtual time is
// deterministic, so any drift is a real transport change); window 4 must
// keep at least a 2x pipelining speedup over it.
func TestMeasureWindowSweep(t *testing.T) {
	const words, ops = 1000, 30
	const w1Pin = 34148 // µs/op
	t.Logf("%d-word pipelined %v, %d ops per window", words, OpPut, ops)
	t.Logf("%-6s %8s %9s %8s %6s %7s %7s", "window", "us/op", "frames/op", "speedup", "fills", "cumacks", "retrans")
	var w1, w4 time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		r := MeasureOp(Config{Op: OpPut, Words: words, Pipelined: true, Window: w, Ops: ops})
		switch w {
		case 1:
			w1 = r.PerOp
			if r.CumulativeAcks != 0 {
				t.Errorf("stop-and-wait run counted %d cumulative acks", r.CumulativeAcks)
			}
		case 4:
			w4 = r.PerOp
		}
		if w > 1 && r.CumulativeAcks == 0 {
			t.Errorf("window=%d run counted no cumulative acks", w)
		}
		t.Logf("%-6d %8d %9.2f %7.2fx %6d %7d %7d", w, r.PerOp/time.Microsecond, r.FramesPerOp,
			float64(w1)/float64(r.PerOp), r.WindowFills, r.CumulativeAcks, r.FragRetransmits)
	}
	if got := int64(w1 / time.Microsecond); got != w1Pin {
		t.Errorf("window=1: %d us/op, pinned %d", got, w1Pin)
	}
	if speedup := float64(w1) / float64(w4); speedup < 2.0 {
		t.Errorf("window=4 speedup %.2fx < 2.0x (%v vs %v per op)", speedup, w4, w1)
	}
}
