// Lossy-window measurement: virtual time to complete a reliable bulk
// transfer as a function of frame-loss rate and window depth (DESIGN.md
// §12). Unlike the clean window sweep (window.go), this one drives the
// Delta-t transport directly: the kernel's streaming
// client caps outstanding REQUESTs at three, which never fills a deep
// window, so recovery behavior only shows at the transport layer. Each
// cell sends a fixed batch of multi-fragment messages over a uniformly
// lossy bus and re-submits any message the transport fails (peer-dead
// after a silence window is a legitimate verdict under heavy loss, and a
// bulk-transfer application would retry), so every cell finishes the same
// work and per-op time captures the full cost of recovery. cmd/sodabench
// -table lossywindow prints the sweep and -lossywindow writes it as the
// BENCH_lossywindow.json artifact CI regenerates.
package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"soda/internal/bus"
	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
)

// DefaultLossyBytes is the message size of the standard lossy sweep:
// five DefaultFragSize fragments per message, deep enough that one lost
// fragment strands real pipeline state behind it.
const DefaultLossyBytes = 5000

// DefaultLossyOps is the batch size of the standard lossy sweep.
const DefaultLossyOps = 40

// DefaultLossPcts is the loss axis of the standard sweep, in percent.
var DefaultLossPcts = []int{0, 5, 15, 30}

// DefaultLossyWindows is the window-depth axis of the standard sweep.
var DefaultLossyWindows = []int{1, 4, 8}

// LossyRow is one (loss, window) cell of the lossy sweep.
type LossyRow struct {
	LossPct int `json:"loss_pct"`
	Window  int `json:"window"`
	// Mode names the engine the window selects: "stopwait" for window 1
	// (no fragments), "selective" for the windowed engine.
	Mode    string `json:"mode"`
	PerOpUS int64  `json:"per_op_us"`
	// SlowdownVsClean is this row's per-op time divided by the same
	// window's row at 0% loss — the recovery tax.
	SlowdownVsClean float64 `json:"slowdown_vs_clean"`
	// Resubmits counts message-level retries: sends the transport failed
	// (peer presumed dead) that the benchmark re-issued.
	Resubmits            uint64 `json:"resubmits"`
	FragRetransmits      uint64 `json:"frag_retransmits"`
	SelectiveRetransmits uint64 `json:"selective_retransmits"`
	SackBlocksSent       uint64 `json:"sack_blocks_sent"`
	WindowDecreases      uint64 `json:"window_decreases"`
	WindowIncreases      uint64 `json:"window_increases"`
}

// LossySweep is the machine-readable lossy-window record (the
// BENCH_lossywindow.json format). All times are deterministic virtual
// microseconds: the loss schedule is drawn from the seeded simulation
// RNG, so CI regenerates this file and compares exactly.
type LossySweep struct {
	Description string     `json:"description"`
	Command     string     `json:"command"`
	Bytes       int        `json:"bytes"`
	Ops         int        `json:"ops"`
	Seed        int64      `json:"seed"`
	Rows        []LossyRow `json:"rows"`
}

// lossyCell runs one bulk transfer: ops messages of size bytes from MID 1
// to MID 2 over a bus dropping each delivery with probability lossPct/100.
// Failed sends are re-submitted until every message is acknowledged.
func lossyCell(seed int64, bytes, ops, window, lossPct int) LossyRow {
	k := sim.New(seed)
	k.SetEventLimit(64_000_000)
	busCfg := bus.DefaultConfig()
	busCfg.LossProb = float64(lossPct) / 100
	b := bus.New(k, busCfg)
	cfg := deltat.DefaultConfig()
	cfg.Window = window
	hooks := deltat.Hooks{OnData: func(frame.MID, []byte) deltat.Decision {
		return deltat.Decision{Verdict: deltat.VerdictAck}
	}}
	sender, err := deltat.New(k, b.Wire(), 1, cfg, hooks)
	if err != nil {
		panic(err)
	}
	if _, err := deltat.New(k, b.Wire(), 2, cfg, hooks); err != nil {
		panic(err)
	}

	var resubmits uint64
	var doneAt sim.Time
	acked := 0
	for i := 0; i < ops; i++ {
		p := make([]byte, bytes)
		for j := range p {
			p[j] = byte(i + j)
		}
		// Self-re-submitting completion: the Delta-t verdict "peer dead"
		// means a DeadAfter span of pure silence, which uniform 30% loss
		// produces now and then; the bulk-transfer application's answer
		// is to send again on the fresh connection.
		var cb func(deltat.Result)
		cb = func(r deltat.Result) {
			if r.Kind == deltat.ResultAcked {
				acked++
				doneAt = k.Now()
				return
			}
			resubmits++
			sender.Send(2, p, nil, cb)
		}
		sender.Send(2, p, nil, cb)
	}
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("lossywindow cell (loss=%d%% w=%d): %v", lossPct, window, err))
	}
	if acked != ops {
		panic(fmt.Sprintf("lossywindow cell (loss=%d%% w=%d): acked %d/%d", lossPct, window, acked, ops))
	}
	st := b.Stats()
	mode := "stopwait"
	if window > 1 {
		mode = "selective"
	}
	return LossyRow{
		LossPct:              lossPct,
		Window:               window,
		Mode:                 mode,
		PerOpUS:              doneAt.Microseconds() / int64(ops),
		Resubmits:            resubmits,
		FragRetransmits:      st.FragmentRetransmits,
		SelectiveRetransmits: st.SelectiveRetransmits,
		SackBlocksSent:       st.SackBlocksSent,
		WindowDecreases:      st.WindowDecreases,
		WindowIncreases:      st.WindowIncreases,
	}
}

// MeasureLossyWindow runs the full loss × window sweep: window 1 is the
// stop-and-wait transport, deeper windows the selective-repeat engine.
func MeasureLossyWindow(bytes, ops int, windows, lossPcts []int) LossySweep {
	if bytes <= 0 {
		bytes = DefaultLossyBytes
	}
	if ops <= 0 {
		ops = DefaultLossyOps
	}
	if len(windows) == 0 {
		windows = DefaultLossyWindows
	}
	if len(lossPcts) == 0 {
		lossPcts = DefaultLossPcts
	}
	const seed = 3
	sweep := LossySweep{
		Description: "Virtual time per message of a reliable bulk transfer vs frame-loss rate and window depth (DESIGN.md §12). The windowed engine (selective repeat: SACK hole repair + AIMD window) must degrade gracefully under loss and beat stop-and-wait at every loss rate. Deterministic virtual time: CI regenerates this file and compares exactly.",
		Command:     fmt.Sprintf("go run ./cmd/sodabench -table none -lossywindow BENCH_lossywindow.json -ops %d", ops),
		Bytes:       bytes,
		Ops:         ops,
		Seed:        seed,
	}
	// clean is the window's 0% baseline for SlowdownVsClean; the loss axis
	// is swept inner so each baseline lands before its lossy rows.
	for _, w := range windows {
		var clean int64
		for _, loss := range lossPcts {
			row := lossyCell(seed, bytes, ops, w, loss)
			if loss == 0 {
				clean = row.PerOpUS
			}
			if clean > 0 {
				row.SlowdownVsClean = float64(row.PerOpUS) / float64(clean)
			}
			sweep.Rows = append(sweep.Rows, row)
		}
	}
	return sweep
}

// Write emits the sweep as indented JSON (the BENCH_lossywindow.json
// format).
func (s LossySweep) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadLossySweep parses a BENCH_lossywindow.json artifact.
func ReadLossySweep(r io.Reader) (LossySweep, error) {
	var s LossySweep
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}

// Row returns the sweep row for (loss, window), or nil.
func (s LossySweep) Row(lossPct, window int) *LossyRow {
	for i := range s.Rows {
		r := &s.Rows[i]
		if r.LossPct == lossPct && r.Window == window {
			return r
		}
	}
	return nil
}

// Check asserts the claims the artifact exists to pin (DESIGN.md §12): the
// windowed engine at 15% loss stays within 2x of its lossless time at every
// depth, and every windowed row beats the stop-and-wait row at the same
// loss rate — the engine has to earn its keep on a lossy wire, not only on
// a clean one. Returns every violated claim.
func (s LossySweep) Check() []error {
	var errs []error
	for _, r := range s.Rows {
		if r.Window <= 1 {
			continue
		}
		if r.LossPct == 15 && r.SlowdownVsClean > 2.0 {
			errs = append(errs, fmt.Errorf("w=%d at 15%% loss: slowdown %.2fx vs clean, want <= 2x",
				r.Window, r.SlowdownVsClean))
		}
		sw := s.Row(r.LossPct, 1)
		if sw == nil {
			errs = append(errs, fmt.Errorf("missing stop-and-wait row at loss=%d%% to judge window=%d against", r.LossPct, r.Window))
			continue
		}
		if r.PerOpUS >= sw.PerOpUS {
			errs = append(errs, fmt.Errorf("w=%d at %d%% loss: %d us/op does not beat stop-and-wait's %d us/op",
				r.Window, r.LossPct, r.PerOpUS, sw.PerOpUS))
		}
	}
	return errs
}
