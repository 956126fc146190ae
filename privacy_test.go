package soda_test

import (
	"bytes"
	"testing"

	"soda"
)

// privacyPutSize spans three fragments of the windowed framing.
const privacyPutSize = 2500

// privacyPattern is the put data of request i. Its bytes never take the
// scribble values, so a scribble run on the wire can only be a leak.
func privacyPattern(i int32, buf []byte) []byte {
	for j := range buf {
		buf[j] = byte((int(i)*7+j)%200 + 1)
	}
	return buf
}

const (
	requesterScribble = 0xEE
	handlerScribble   = 0xDD
)

func scribble(b []byte, v byte) {
	for j := range b {
		b[j] = v
	}
}

// TestPutDataPrivacy holds each side of a PUT to its own copy of the data,
// under both framings and on a lossy bus: the requester overwrites its put
// buffer right after each Put, and each of two servers overwrites the data
// it was delivered. No frame on the wire — first transmission,
// retransmission or re-supplied data — may carry either scribble, no
// delivered frame may change after its delivery, and every server that
// accepts a PUT must see the data as it was at Put time.
func TestPutDataPrivacy(t *testing.T) {
	for _, window := range []int{1, 8} {
		t.Run(map[int]string{1: "stopandwait", 8: "windowed"}[window], func(t *testing.T) {
			const puts = 20
			type seen struct{ raw, snapshot []byte }
			var frames []seen
			nw := soda.NewNetwork(soda.WithSeed(3), soda.WithLoss(0.1), soda.WithTransportWindow(window))
			nw.Subscribe(soda.Subscriber{Delivery: func(ev soda.DeliveryEvent) {
				frames = append(frames, seen{raw: ev.Raw, snapshot: append([]byte(nil), ev.Raw...)})
			}})
			intact := map[soda.MID]int{}
			server := soda.Program{
				Init: func(c *soda.Client, _ soda.MID) {
					if err := c.Advertise(hotPattern); err != nil {
						panic(err)
					}
				},
				Handler: func(c *soda.Client, ev soda.Event) {
					if ev.Kind != soda.EventRequestArrival {
						return
					}
					res := c.AcceptCurrentPut(soda.OK, ev.PutSize)
					if res.Status != soda.AcceptSuccess {
						return // no data to check (see the loss note below)
					}
					if bytes.Equal(res.Data, privacyPattern(ev.Arg, make([]byte, privacyPutSize))) {
						intact[c.MID()]++
					} else {
						t.Errorf("server %d: request %d delivered %d altered bytes", c.MID(), ev.Arg, len(res.Data))
					}
					scribble(res.Data, handlerScribble)
				},
			}
			nw.Register("server", server)
			completed, succeeded := 0, 0
			nw.Register("client", soda.Program{
				Task: func(c *soda.Client) {
					put := make([]byte, privacyPutSize)
					done := func(ev soda.Event) {
						completed++
						if ev.Status == soda.StatusSuccess && ev.PutN == privacyPutSize {
							succeeded++
						}
					}
					for i := int32(0); i < puts; i++ {
						for _, srv := range []soda.MID{1, 2} {
							tid, err := c.Put(soda.ServerSig{MID: srv, Pattern: hotPattern}, i, privacyPattern(i, put))
							if err != nil {
								t.Errorf("Put: %v", err)
								return
							}
							c.OnCompletion(tid, done)
							scribble(put, requesterScribble)
						}
						want := 2 * int(i+1)
						c.WaitUntil(func() bool { return completed == want })
					}
				},
			})
			for _, mid := range []soda.MID{1, 2, 3} {
				nw.MustAddNode(mid)
			}
			nw.MustBoot(1, "server")
			nw.MustBoot(2, "server")
			nw.MustBoot(3, "client")
			_ = nw.RunToCompletion() // ends with the servers parked in their handlers
			_ = nw.Close()

			// At this loss rate a few stop-and-wait PUTs end CRASHED with
			// both machines alive, a transport defect this test does not
			// pin; privacy is about the ones that complete.
			if succeeded < puts || intact[1] < puts/2 || intact[2] < puts/2 {
				t.Fatalf("%d of %d PUTs succeeded; intact deliveries %v: too few to test", succeeded, 2*puts, intact)
			}
			st := nw.Stats()
			if st.Retransmissions+st.FragmentRetransmits == 0 {
				t.Fatalf("no retransmission on the lossy bus: the test would not reach the retransmission path")
			}
			for _, f := range frames {
				if !bytes.Equal(f.raw, f.snapshot) {
					t.Fatalf("a %d-byte frame changed after its delivery", len(f.raw))
				}
				for _, v := range []byte{requesterScribble, handlerScribble} {
					if bytes.Contains(f.raw, bytes.Repeat([]byte{v}, 16)) {
						t.Fatalf("a %d-byte frame on the wire carries scribble %#x", len(f.raw), v)
					}
				}
			}
		})
	}
}
