package connector

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"soda"
)

func TestWiringRoundTrip(t *testing.T) {
	w := Wiring{
		Self:         2,
		Members:      []soda.MID{4, 9, 12},
		LinkPatterns: []soda.Pattern{soda.WellKnownPattern(1), soda.WellKnownPattern(77)},
	}
	got, err := DecodeWiring(w.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Self != w.Self || len(got.Members) != 3 || got.Members[1] != 9 ||
		len(got.LinkPatterns) != 2 || got.LinkPatterns[1] != w.LinkPatterns[1] {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestWiringRejectsMalformed(t *testing.T) {
	if _, err := DecodeWiring(nil); err == nil {
		t.Error("nil block accepted")
	}
	if _, err := DecodeWiring([]byte{1, 2, 3, 0, 9}); err == nil {
		t.Error("truncated block accepted")
	}
}

func TestWiringRoundTripProperty(t *testing.T) {
	f := func(self uint8, mids []uint16, pats []uint32) bool {
		if len(mids) > 255 || len(pats) > 255 {
			return true
		}
		w := Wiring{Self: int(self)}
		for _, m := range mids {
			w.Members = append(w.Members, soda.MID(m))
		}
		for _, p := range pats {
			w.LinkPatterns = append(w.LinkPatterns, soda.WellKnownPattern(uint64(p)))
		}
		got, err := DecodeWiring(w.Encode())
		if err != nil {
			return false
		}
		if got.Self != int(self) || len(got.Members) != len(mids) || len(got.LinkPatterns) != len(pats) {
			return false
		}
		for i, m := range mids {
			if got.Members[i] != soda.MID(m) {
				return false
			}
		}
		for i := range pats {
			if got.LinkPatterns[i] != w.LinkPatterns[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadWiresTwoModules is the §4.3.1 scenario: a connector loads a
// producer and a consumer on free machines; the consumer advertises the
// link pattern from its wiring block, the producer sends on it — no
// broadcasts, no well-known names between them. Nothing orders the
// consumer's Init before the producer's first send, so the producer
// retries while the link is unadvertised; the test runs with the kernel's
// transport costs scaled by 1 and by 4 to hold it to that at either speed.
func TestLoadWiresTwoModules(t *testing.T) {
	for _, scale := range []time.Duration{1, 4} {
		t.Run(fmt.Sprintf("x%d", scale), func(t *testing.T) {
			cfg := soda.DefaultNodeConfig()
			costs := &cfg.Transport.Costs
			costs.ProtocolPerFrame *= scale
			costs.ConnTimerPerFrame *= scale
			costs.RetransTimer *= scale
			costs.CopyPerByte *= scale
			loadWiresTwoModules(t, soda.WithNodeConfig(cfg))
		})
	}
}

func loadWiresTwoModules(t *testing.T, opts ...soda.Option) {
	nw := soda.NewNetwork(opts...)
	var delivered []byte
	nw.Register("consumer", soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			w, err := DecodeWiring(c.BootParams())
			if err != nil {
				panic(err)
			}
			c.SetStash(w)
			if err := c.Advertise(w.LinkPatterns[0]); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			w := c.Stash().(Wiring)
			if ev.Kind == soda.EventRequestArrival && ev.Pattern == w.LinkPatterns[0] {
				res := c.AcceptCurrentPut(soda.OK, ev.PutSize)
				if res.Status == soda.AcceptSuccess {
					delivered = res.Data
				}
			}
		},
	})
	nw.Register("producer", soda.Program{
		Task: func(c *soda.Client) {
			w, err := DecodeWiring(c.BootParams())
			if err != nil {
				panic(err)
			}
			// Module 1 (the consumer) serves the link once its Init has
			// advertised it; until then the put is UNADVERTISED, and the
			// producer tries again a beat later (§4).
			dst := soda.ServerSig{MID: w.Members[1], Pattern: w.LinkPatterns[0]}
			res := c.BPut(dst, soda.OK, []byte("wired!"))
			for res.Status == soda.StatusUnadvertised {
				c.Hold(10 * time.Millisecond)
				res = c.BPut(dst, soda.OK, []byte("wired!"))
			}
			if res.Status != soda.StatusSuccess {
				t.Errorf("producer put: %v", res.Status)
			}
		},
	})
	var loaded Loaded
	var loadErr error
	reclaimed := false
	nw.Register("connector", soda.Program{
		Task: func(c *soda.Client) {
			loaded, loadErr = Load(c, []Module{{Program: "producer"}, {Program: "consumer"}}, 1)
			if loadErr != nil {
				return
			}
			c.Hold(time.Second)
			KillAll(c, loaded)
			reclaimed = len(c.DiscoverAll(soda.BootPattern, 8)) == 2
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustAddNode(3)
	nw.MustBoot(1, "connector")
	if err := nw.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if loadErr != nil {
		t.Fatalf("load: %v", loadErr)
	}
	if len(loaded.Members) != 2 {
		t.Fatalf("loaded = %+v", loaded)
	}
	if string(delivered) != "wired!" {
		t.Fatalf("consumer received %q", delivered)
	}
	if !reclaimed {
		t.Fatal("machines not reclaimed after KillAll")
	}
}

// TestLoadFailsWithoutMachines: not enough free machines is a clean error.
func TestLoadFailsWithoutMachines(t *testing.T) {
	nw := soda.NewNetwork()
	var loadErr error
	nw.Register("connector", soda.Program{
		Task: func(c *soda.Client) {
			_, loadErr = Load(c, []Module{{Program: "a"}, {Program: "b"}}, 0)
		},
	})
	nw.MustAddNode(1)
	nw.MustAddNode(2) // only one free machine
	nw.MustBoot(1, "connector")
	if err := nw.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if loadErr == nil {
		t.Fatal("load succeeded without enough machines")
	}
}
