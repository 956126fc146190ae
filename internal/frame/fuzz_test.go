// Native fuzz tests for the wire codecs. The seed corpus is not synthetic:
// capturedFrames runs a real Delta-t exchange over a lossy bus and taps every
// per-receiver delivery, so the fuzzer starts from genuine DATA, ACK, NACK
// and retransmission frames plus the kernel messages they carry. CI runs
// these with a short -fuzztime as a smoke test; `go test` alone replays the
// seed corpus.
package frame_test

import (
	"bytes"
	"reflect"
	"testing"

	"soda/internal/bus"
	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
)

// capturedFrames drives two Delta-t endpoints through a handful of exchanges
// on a lossy bus and returns a copy of every raw transport frame that reached
// a receiver — including retransmissions and piggybacked ACKs.
func capturedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	k := sim.New(42)
	cfg := bus.DefaultConfig()
	cfg.LossProb = 0.2
	b := bus.New(k, cfg)

	var raws [][]byte
	b.SetHooks(bus.Hooks{Delivery: func(e bus.DeliveryEvent) {
		raws = append(raws, append([]byte(nil), e.Raw...))
	}})

	reply := frame.Encode(&frame.Accept{TID: 7, Arg: -1, GetSize: 64, Data: []byte("pong")})
	mk := func(mid frame.MID, hooks deltat.Hooks) *deltat.Endpoint {
		ep, err := deltat.New(k, b.Wire(), mid, deltat.DefaultConfig(), hooks)
		if err != nil {
			tb.Fatalf("deltat.New(%d): %v", mid, err)
		}
		return ep
	}
	mk(2, deltat.Hooks{OnData: func(frame.MID, []byte) deltat.Decision {
		return deltat.Decision{Verdict: deltat.VerdictAck, Reply: reply}
	}})
	ep1 := mk(1, deltat.Hooks{OnData: func(frame.MID, []byte) deltat.Decision {
		return deltat.Decision{Verdict: deltat.VerdictAck}
	}})

	req := frame.Encode(&frame.Request{
		TID: 7, Pattern: frame.WellKnownPattern(0o7441),
		Arg: 3, PutSize: 32, GetSize: 64,
		HasData: true, Data: []byte("put-data"),
	})
	retrans := frame.Encode(&frame.Request{TID: 7, Pattern: frame.WellKnownPattern(0o7441), PutSize: 32, GetSize: 64})
	ep1.Send(2, req, retrans, nil)
	ep1.Send(2, frame.Encode(&frame.Probe{TID: 7}), nil, nil)
	if err := k.Run(); err != nil {
		tb.Fatalf("capture run: %v", err)
	}
	if len(raws) == 0 {
		tb.Fatal("capture rig produced no frames")
	}
	return raws
}

// capturedWindowFrames is the windowed-transport counterpart of
// capturedFrames: a lossy bidirectional exchange of multi-fragment
// messages between Window=4 endpoints, tapping every delivered frame. The
// capture contains FRAG runs (first, middle, FragEnd, and Urgent-flagged
// fragments), standalone FRAGACKs, piggybacked cumulative acks, and
// fragment retransmissions — the whole §11 wire vocabulary.
func capturedWindowFrames(tb testing.TB) [][]byte {
	tb.Helper()
	k := sim.New(7)
	cfg := bus.DefaultConfig()
	cfg.LossProb = 0.15
	b := bus.New(k, cfg)

	var raws [][]byte
	b.SetHooks(bus.Hooks{Delivery: func(e bus.DeliveryEvent) {
		raws = append(raws, append([]byte(nil), e.Raw...))
	}})

	dcfg := deltat.DefaultConfig()
	dcfg.Window = 4
	mk := func(mid frame.MID) *deltat.Endpoint {
		ep, err := deltat.New(k, b.Wire(), mid, dcfg, deltat.Hooks{
			OnData: func(frame.MID, []byte) deltat.Decision {
				return deltat.Decision{Verdict: deltat.VerdictAck, Reply: []byte("ok")}
			},
		})
		if err != nil {
			tb.Fatalf("deltat.New(%d): %v", mid, err)
		}
		return ep
	}
	ep1, ep2 := mk(1), mk(2)

	bulk := func(n int, fill byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = fill + byte(i)
		}
		return p
	}
	ep1.Send(2, bulk(3000, 0x10), nil, nil)
	ep1.Send(2, bulk(1500, 0x20), nil, nil)
	ep2.Send(1, bulk(2200, 0x30), nil, nil)
	ep1.SendUrgent(2, bulk(1300, 0x40), nil, nil)
	ep1.Send(2, []byte("small"), nil, nil)
	if err := k.Run(); err != nil {
		tb.Fatalf("window capture run: %v", err)
	}
	if len(raws) == 0 {
		tb.Fatal("window capture rig produced no frames")
	}
	return raws
}

// capturedSackFrames captures a selective-repeat exchange on a brutally
// lossy wire (30%), where the receiver's out-of-order buffer fills and
// every standalone FRAGACK carries a SACK bitmap of the holes. The corpus
// this yields — FRAGACKs with nonzero SackBits, selective retransmissions,
// completion probes — is the DESIGN.md §12 wire vocabulary that the
// clean and lightly lossy rigs rarely produce.
func capturedSackFrames(tb testing.TB) [][]byte {
	tb.Helper()
	k := sim.New(11)
	cfg := bus.DefaultConfig()
	cfg.LossProb = 0.3
	b := bus.New(k, cfg)

	var raws [][]byte
	b.SetHooks(bus.Hooks{Delivery: func(e bus.DeliveryEvent) {
		raws = append(raws, append([]byte(nil), e.Raw...))
	}})

	dcfg := deltat.DefaultConfig()
	dcfg.Window = 8
	mk := func(mid frame.MID) *deltat.Endpoint {
		ep, err := deltat.New(k, b.Wire(), mid, dcfg, deltat.Hooks{
			OnData: func(frame.MID, []byte) deltat.Decision {
				return deltat.Decision{Verdict: deltat.VerdictAck, Reply: []byte("ok")}
			},
		})
		if err != nil {
			tb.Fatalf("deltat.New(%d): %v", mid, err)
		}
		return ep
	}
	ep1 := mk(1)
	mk(2)

	for i := 0; i < 8; i++ {
		p := make([]byte, 4000)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		var cb func(deltat.Result)
		cb = func(r deltat.Result) {
			if r.Kind != deltat.ResultAcked {
				ep1.Send(2, p, nil, cb) // survive a mid-run death verdict
			}
		}
		ep1.Send(2, p, nil, cb)
	}
	if err := k.Run(); err != nil {
		tb.Fatalf("sack capture run: %v", err)
	}
	if len(raws) == 0 {
		tb.Fatal("sack capture rig produced no frames")
	}
	return raws
}

// seedMessages is one instance of every kernel message type, with and
// without payload data.
func seedMessages() []frame.Message {
	return []frame.Message{
		&frame.Request{TID: 1, Pattern: frame.WellKnownPattern(0o100), Arg: -5, PutSize: 8, GetSize: 16, HasData: true, Data: []byte("abc")},
		&frame.Request{TID: 2, Pattern: frame.UniquePattern(3, 9)},
		&frame.Accept{TID: 1, Arg: 1, GetSize: 8, NeedData: true},
		&frame.Accept{TID: 1, Data: []byte("reply")},
		&frame.AcceptData{TID: 1, Data: []byte("resent")},
		&frame.Cancel{TID: 1},
		&frame.CancelReply{TID: 1, OK: true},
		&frame.Probe{TID: 1},
		&frame.ProbeReply{TID: 1, Alive: true},
		&frame.Discover{TID: 1, Pattern: frame.WellKnownPattern(0o7441)},
		&frame.DiscoverReply{TID: 1, Pattern: frame.ReservedPattern(2)},
	}
}

// FuzzMessageRoundTrip: any byte slice Decode accepts must survive
// Encode→Decode unchanged, and Encode's length must match WireSize. The
// comparison is decode-vs-decode, not decode-vs-literal: the wire format is
// not bijective (any nonzero byte decodes as true), so the invariant is that
// decoding is idempotent across one canonicalizing re-encode.
func FuzzMessageRoundTrip(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(frame.Encode(m))
	}
	for _, raw := range capturedFrames(f) {
		if tf, err := frame.DecodeTransport(raw); err == nil && len(tf.Payload) > 0 {
			f.Add(tf.Payload)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := frame.Decode(b)
		if err != nil {
			return // invalid inputs must be rejected, not crash — that's the test
		}
		enc := frame.Encode(m)
		if len(enc) != m.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d for %s", m.WireSize(), len(enc), m.MsgKind())
		}
		m2, err := frame.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", m.MsgKind(), err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed message:\n  first:  %#v\n  second: %#v", m, m2)
		}
		// AppendMessage must be Encode with a caller-owned prefix.
		withPrefix := frame.AppendMessage([]byte{0xAA, 0xBB}, m)
		if !bytes.Equal(withPrefix[2:], enc) {
			t.Fatal("AppendMessage diverged from Encode")
		}
	})
}

// FuzzTransportRoundTrip: the transport codec must round-trip semantically,
// report WireSize consistently, the shared (zero-copy) decoder must be
// observationally identical to the copying one on every input, and
// CheckTransport must return the decoders' error.
func FuzzTransportRoundTrip(f *testing.F) {
	for _, raw := range capturedFrames(f) {
		f.Add(raw)
	}
	for _, raw := range capturedWindowFrames(f) {
		f.Add(raw)
	}
	for _, raw := range capturedSackFrames(f) {
		f.Add(raw)
	}
	f.Add(frame.EncodeTransport(&frame.TransportFrame{
		Kind: frame.TransportNack, Src: 1, Dst: 2, Seq: 9, Err: frame.NackBusy,
	}))
	f.Add(frame.EncodeTransport(&frame.TransportFrame{
		Kind: frame.TransportFrag, Src: 1, Dst: 2, Seq: 3, MsgSeq: 1, FragIndex: 2,
		FragEnd: true, Urgent: true, AckPresent: true, AckSeq: 5,
		Payload: []byte("tail-chunk"),
	}))
	f.Add(frame.EncodeTransport(&frame.TransportFrame{
		Kind: frame.TransportFragAck, Src: 2, Dst: 1, Seq: 3,
	}))
	f.Add(frame.EncodeTransport(&frame.TransportFrame{
		Kind: frame.TransportDatagram, Src: 3, Dst: frame.BroadcastMID,
		Payload: frame.Encode(&frame.Discover{TID: 4, Pattern: frame.WellKnownPattern(0o7441)}),
	}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		tf, err := frame.DecodeTransport(b)
		shared, errShared := frame.DecodeTransportShared(b)
		if (err == nil) != (errShared == nil) {
			t.Fatalf("decoder disagreement: copy err=%v, shared err=%v", err, errShared)
		}
		if errCheck := frame.CheckTransport(b); (err == nil) != (errCheck == nil) ||
			err != nil && err.Error() != errCheck.Error() {
			t.Fatalf("CheckTransport disagrees with the decoder: decode err=%v, check err=%v", err, errCheck)
		}
		if err != nil {
			return
		}
		// Differential: aliasing the payload must not change what callers see.
		if !reflect.DeepEqual(tf, shared) {
			t.Fatalf("shared decode diverged:\n  copy:   %#v\n  shared: %#v", tf, shared)
		}
		if len(shared.Payload) > 0 && &shared.Payload[0] != &b[len(b)-len(shared.Payload)] {
			t.Fatal("DecodeTransportShared copied the payload")
		}
		enc := frame.EncodeTransport(tf)
		if len(enc) != tf.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", tf.WireSize(), len(enc))
		}
		tf2, err := frame.DecodeTransport(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(tf, tf2) {
			t.Fatalf("round trip changed frame:\n  first:  %#v\n  second: %#v", tf, tf2)
		}
	})
}

// TestCapturedCorpusDecodes pins the capture rig itself: every frame it taps
// must decode, and every DATA/ACK payload must be a valid kernel message —
// so the fuzz seeds stay real wire traffic, not garbage.
func TestCapturedCorpusDecodes(t *testing.T) {
	kinds := map[frame.TransportKind]int{}
	for _, raw := range capturedFrames(t) {
		tf, err := frame.DecodeTransport(raw)
		if err != nil {
			t.Fatalf("captured frame does not decode: %v", err)
		}
		kinds[tf.Kind]++
		if len(tf.Payload) > 0 {
			if _, err := frame.Decode(tf.Payload); err != nil {
				t.Fatalf("captured %s payload does not decode: %v", tf.Kind, err)
			}
		}
	}
	if kinds[frame.TransportData] == 0 || kinds[frame.TransportAck] == 0 {
		t.Fatalf("capture rig missing core traffic: %v", kinds)
	}
}

// TestCapturedWindowCorpusDecodes pins the windowed capture rig: every
// tapped frame decodes, re-encodes byte-identically (the codec is
// canonical on real traffic), and the shared decoder agrees with the
// copying one while aliasing rather than copying fragment payloads. Unlike
// DATA frames, a fragment's payload is a chunk of a larger message, so it
// is deliberately NOT fed to frame.Decode here. The capture must exhibit
// the full fragment vocabulary — first/middle/FragEnd fragments, urgent
// fragments, piggybacked cumulative acks, and standalone FRAGACKs — or the
// fuzz seeds have gone stale.
func TestCapturedWindowCorpusDecodes(t *testing.T) {
	kinds := map[frame.TransportKind]int{}
	ends, urgents, piggy := 0, 0, 0
	for _, raw := range capturedWindowFrames(t) {
		tf, err := frame.DecodeTransport(raw)
		if err != nil {
			t.Fatalf("captured frame does not decode: %v", err)
		}
		shared, err := frame.DecodeTransportShared(raw)
		if err != nil {
			t.Fatalf("shared decode rejected a frame the copying decoder accepted: %v", err)
		}
		if !reflect.DeepEqual(tf, shared) {
			t.Fatalf("shared decode diverged on captured %s:\n  copy:   %#v\n  shared: %#v",
				tf.Kind, tf, shared)
		}
		if len(shared.Payload) > 0 && &shared.Payload[0] != &raw[len(raw)-len(shared.Payload)] {
			t.Fatalf("DecodeTransportShared copied a %s payload", tf.Kind)
		}
		if enc := frame.EncodeTransport(tf); !bytes.Equal(enc, raw) {
			t.Fatalf("captured %s is not canonical: re-encode differs", tf.Kind)
		}
		kinds[tf.Kind]++
		if tf.Kind == frame.TransportFrag {
			if tf.FragEnd {
				ends++
			}
			if tf.Urgent {
				urgents++
			}
			if tf.AckPresent {
				piggy++
			}
		}
	}
	if kinds[frame.TransportFrag] == 0 || kinds[frame.TransportFragAck] == 0 {
		t.Fatalf("window capture missing fragment traffic: %v", kinds)
	}
	if ends == 0 || urgents == 0 || piggy == 0 {
		t.Fatalf("fragment vocabulary incomplete: FragEnd=%d Urgent=%d AckPresent=%d", ends, urgents, piggy)
	}
}

// TestCapturedSackCorpusDecodes pins the selective-repeat capture rig:
// every tapped frame decodes canonically, and the traffic exhibits the
// recovery vocabulary the fuzzer needs as seeds — standalone FRAGACKs
// carrying nonzero SACK bitmaps, and fragment retransmissions (the same
// frame sequence delivered more than once). If the 30%-loss exchange stops
// producing SACKs, the seeds have gone stale and this fails loudly.
func TestCapturedSackCorpusDecodes(t *testing.T) {
	kinds := map[frame.TransportKind]int{}
	sacks := 0
	fragSeqSeen := map[uint8]int{}
	retrans := 0
	for _, raw := range capturedSackFrames(t) {
		tf, err := frame.DecodeTransport(raw)
		if err != nil {
			t.Fatalf("captured frame does not decode: %v", err)
		}
		if enc := frame.EncodeTransport(tf); !bytes.Equal(enc, raw) {
			t.Fatalf("captured %s is not canonical: re-encode differs", tf.Kind)
		}
		kinds[tf.Kind]++
		switch tf.Kind {
		case frame.TransportFragAck:
			if tf.SackBits != 0 {
				sacks++
			}
		case frame.TransportFrag:
			fragSeqSeen[tf.Seq]++
			if fragSeqSeen[tf.Seq] > 1 {
				retrans++
			}
		}
	}
	if kinds[frame.TransportFrag] == 0 || kinds[frame.TransportFragAck] == 0 {
		t.Fatalf("sack capture missing fragment traffic: %v", kinds)
	}
	if sacks == 0 {
		t.Fatal("no SACK-bearing FRAGACK captured: the selective-repeat seeds are stale")
	}
	if retrans == 0 {
		t.Fatal("no fragment retransmission captured at 30% loss")
	}
}

// TestCheckTransportAllocatesNothing holds the checker's wire-sanity check
// to zero allocations on every frame of the captured corpora.
func TestCheckTransportAllocatesNothing(t *testing.T) {
	var corpus [][]byte
	corpus = append(corpus, capturedFrames(t)...)
	corpus = append(corpus, capturedWindowFrames(t)...)
	corpus = append(corpus, capturedSackFrames(t)...)
	corpus = append(corpus, []byte{}, []byte{byte(frame.TransportData)})
	for i, raw := range corpus {
		if a := testing.AllocsPerRun(10, func() { _ = frame.CheckTransport(raw) }); a != 0 {
			t.Fatalf("frame %d (% x): CheckTransport allocates %.1f times, want 0", i, raw, a)
		}
	}
}
