// Lossy-window measurement: virtual time to complete a reliable bulk
// transfer as a function of frame-loss rate and window depth (DESIGN.md
// §12, EXPERIMENTS.md E7). Unlike the clean window sweep, this one drives
// the Delta-t transport directly: the kernel's streaming client caps
// outstanding REQUESTs at three, which never fills a deep window, so
// recovery behavior only shows at the transport layer. Each cell sends a
// fixed batch of multi-fragment messages over a uniformly lossy bus and
// re-submits any message the transport fails (peer-dead after a silence
// window is a legitimate verdict under heavy loss, and a bulk-transfer
// application would retry), so every cell finishes the same work and
// per-op time captures the full cost of recovery.
package bench

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"soda/internal/bus"
	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
)

// lossyRow is one (loss, window) cell: per-message virtual time, the
// message-level retries the cell needed, and the bus counters of the run
// with both endpoints' ledgers added.
type lossyRow struct {
	perOpUS int64
	// resubmits counts sends the transport failed (peer presumed dead)
	// that the cell re-issued.
	resubmits uint64
	bus.Stats
}

// lossyCell runs one bulk transfer: ops messages of size bytes from MID 1
// to MID 2 over a bus dropping each delivery with probability lossPct/100.
// Failed sends are re-submitted until every message is acknowledged.
func lossyCell(seed int64, bytes, ops, window, lossPct int) lossyRow {
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
	receiver, err := deltat.New(k, b.Wire(), 2, cfg, hooks)
	if err != nil {
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
	for _, ep := range []*deltat.Endpoint{sender, receiver} {
		lv := reflect.ValueOf(ep.Ledger()).Elem()
		for i := 0; i < lv.NumField(); i++ {
			f := reflect.ValueOf(&st).Elem().FieldByName(lv.Type().Field(i).Name)
			f.SetUint(f.Uint() + lv.Field(i).Addr().Interface().(*atomic.Uint64).Load())
		}
	}
	return lossyRow{
		perOpUS:   doneAt.Microseconds() / int64(ops),
		resubmits: resubmits,
		Stats:     st,
	}
}

// TestMeasureLossyWindowShape runs a miniature sweep: loss only ever
// costs time, the windowed engine repairs loss with SACK blocks, and
// stop-and-wait counts no windowed recovery work.
func TestMeasureLossyWindowShape(t *testing.T) {
	for _, w := range []int{1, 4} {
		clean, lossy := lossyCell(3, 3000, 8, w, 0), lossyCell(3, 3000, 8, w, 15)
		if lossy.perOpUS < clean.perOpUS {
			t.Errorf("window %d got faster under loss: %d vs %d us/op", w, lossy.perOpUS, clean.perOpUS)
		}
		if w > 1 && lossy.SackBlocksSent == 0 {
			t.Errorf("window %d under loss sent no SACK blocks", w)
		}
		if w == 1 && lossy.FragmentRetransmits+lossy.SackBlocksSent != 0 {
			t.Errorf("stop-and-wait cell counted windowed recovery work: %+v", lossy.Stats)
		}
	}
}

// TestLossySweepDefaultGates is the DESIGN.md §12 gate and the E7 table:
// forty 5000-byte messages at seed 3 across loss {0,5,15,30}% × window
// {1,4,8}, window 1 being stop-and-wait. Every per-op time is pinned
// exactly; every windowed cell beats stop-and-wait at the same loss; and
// at 15% loss the windowed engine stays within 2x of its lossless time.
func TestLossySweepDefaultGates(t *testing.T) {
	lossPcts := []int{0, 5, 15, 30}
	pins := map[int][]int64{ // µs per message, by window then loss
		// Each lossy stop-and-wait cell resubmits after peer-dead
		// verdicts, and each resubmission waits out the reconnect quiet
		// period (ConnLifetime + RetransInterval) before restarting the
		// alternating bit. Reusing the sequence space at once was faster
		// but could ack a message the peer took for a duplicate and never
		// delivered.
		1: {73996, 111900, 180039, 384633},
		4: {41210, 45861, 74658, 134323},
		8: {41210, 46900, 62478, 99699},
	}
	t.Logf("%-5s %-6s %8s %8s %5s %7s %6s %5s %6s %6s", "loss", "window", "us/op",
		"vs clean", "resub", "fragrtx", "selrtx", "sack", "windec", "wininc")
	var stopWait []int64
	for _, w := range []int{1, 4, 8} {
		var clean int64
		for i, loss := range lossPcts {
			r := lossyCell(3, 5000, 40, w, loss)
			if loss == 0 {
				clean = r.perOpUS
			}
			slowdown := float64(r.perOpUS) / float64(clean)
			t.Logf("%3d%%  %-6d %8d %7.2fx %5d %7d %6d %5d %6d %6d", loss, w, r.perOpUS, slowdown,
				r.resubmits, r.FragmentRetransmits, r.SelectiveRetransmits, r.SackBlocksSent,
				r.WindowDecreases, r.WindowIncreases)
			if want := pins[w][i]; r.perOpUS != want {
				t.Errorf("w=%d at %d%% loss: %d us/op, pinned %d", w, loss, r.perOpUS, want)
			}
			if w == 1 {
				stopWait = append(stopWait, r.perOpUS)
				continue
			}
			if r.perOpUS >= stopWait[i] {
				t.Errorf("w=%d at %d%% loss: %d us/op does not beat stop-and-wait's %d",
					w, loss, r.perOpUS, stopWait[i])
			}
			if loss == 15 && slowdown > 2.0 {
				t.Errorf("w=%d at 15%% loss: %.2fx its lossless time, want <= 2x", w, slowdown)
			}
		}
	}
}
