package core

import (
	"errors"
	"testing"
	"time"

	"soda/internal/frame"
)

// TestAdvertiseUniqueTableFull saturates a node's 256-slot pattern table
// and checks the failure is a typed error naming the node, counted once by
// the node's kernel (which soda.Network.Stats reports) and never by the bus.
func TestAdvertiseUniqueTableFull(t *testing.T) {
	n := newTestNet(t, 1, DefaultConfig(), 3)
	var gotErr error
	var advertised int
	n.reg["hog"] = Program{
		Task: func(c *Client) {
			for i := 0; i < 300; i++ {
				if _, err := c.AdvertiseUnique(); err != nil {
					gotErr = err
					return
				}
				advertised++
			}
		},
	}
	n.boot(3, "hog")
	n.run(time.Second)
	if gotErr == nil {
		t.Fatalf("table never filled after %d advertisements", advertised)
	}
	var full *PatternTableFullError
	if !errors.As(gotErr, &full) {
		t.Fatalf("error type = %T (%v), want *PatternTableFullError", gotErr, gotErr)
	}
	if full.Node != 3 {
		t.Fatalf("PatternTableFullError.Node = %d, want 3", full.Node)
	}
	if got := n.nodes[3].PatternTableFull().Load(); got != 1 {
		t.Fatalf("node PatternTableFull = %d, want 1", got)
	}
	if got := n.b.Stats().PatternTableFull; got != 0 {
		t.Fatalf("bus Stats.PatternTableFull = %d, want 0: the kernel counts it", got)
	}
}

// TestAdvertiseObserverEvents checks that pattern binding changes reach the
// observer stream — the feed a segment-level DISCOVER cache relies on.
func TestAdvertiseObserverEvents(t *testing.T) {
	var events []ObsEvent
	cfg := DefaultConfig()
	cfg.Observer = func(ev ObsEvent) {
		if ev.Kind == ObsAdvertise || ev.Kind == ObsUnadvertise {
			events = append(events, ev)
		}
	}
	n := newTestNet(t, 1, cfg, 4)
	p := frame.WellKnownPattern(0o712)
	n.reg["flip"] = Program{
		Task: func(c *Client) {
			if err := c.Advertise(p); err != nil {
				panic(err)
			}
			c.Hold(time.Millisecond)
			if err := c.Unadvertise(p); err != nil {
				panic(err)
			}
		},
	}
	n.boot(4, "flip")
	n.run(time.Second)
	if len(events) != 2 {
		t.Fatalf("observer saw %d advertise events, want 2: %v", len(events), events)
	}
	if events[0].Kind != ObsAdvertise || events[0].Pattern != p || events[0].Node != 4 {
		t.Fatalf("first event = %+v, want ADVERTISE of %v on node 4", events[0], p)
	}
	if events[1].Kind != ObsUnadvertise || events[1].Pattern != p {
		t.Fatalf("second event = %+v, want UNADVERTISE of %v", events[1], p)
	}
}
