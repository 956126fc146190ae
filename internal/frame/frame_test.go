package frame

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPatternClasses(t *testing.T) {
	tests := []struct {
		name          string
		give          Pattern
		wantReserved  bool
		wantWellKnown bool
	}{
		{"unique", UniquePattern(3, 77), false, false},
		{"wellknown", WellKnownPattern(0o346), false, true},
		{"reserved", ReservedPattern(1), true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Reserved(); got != tt.wantReserved {
				t.Errorf("Reserved() = %v, want %v", got, tt.wantReserved)
			}
			if got := tt.give.WellKnown(); got != tt.wantWellKnown {
				t.Errorf("WellKnown() = %v, want %v", got, tt.wantWellKnown)
			}
			if !tt.give.Valid() {
				t.Errorf("pattern %v not Valid", tt.give)
			}
		})
	}
}

func TestUniquePatternNeverCollidesWithClassedPatterns(t *testing.T) {
	f := func(serial uint8, counter uint32) bool {
		p := UniquePattern(serial, counter)
		return !p.Reserved() && !p.WellKnown() && p.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternSlot(t *testing.T) {
	p := WellKnownPattern(0x1234AB)
	if p.Slot() != 0xAB {
		t.Fatalf("Slot = %#x, want 0xAB", p.Slot())
	}
}

func messageFixtures() []Message {
	return []Message{
		&Request{TID: 42, Pattern: WellKnownPattern(7), Arg: -3, PutSize: 10, GetSize: 0, HasData: true, Data: []byte("hello data")},
		&Request{TID: 1, Pattern: UniquePattern(9, 100), Arg: 0, PutSize: 10, GetSize: 20},
		&Accept{TID: 42, Arg: -1, GetSize: 8, NeedData: true},
		&Accept{TID: 43, Arg: 5, GetSize: 0, Data: []byte{1, 2, 3}},
		&AcceptData{TID: 42, Data: []byte("resent put data")},
		&Cancel{TID: 9},
		&CancelReply{TID: 9, OK: true},
		&Probe{TID: 17},
		&ProbeReply{TID: 17, Alive: true},
		&Discover{TID: 5, Pattern: WellKnownPattern(0o123)},
		&DiscoverReply{TID: 5, Pattern: WellKnownPattern(0o123)},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range messageFixtures() {
		t.Run(m.MsgKind().String(), func(t *testing.T) {
			b := Encode(m)
			if len(b) != m.WireSize() {
				t.Fatalf("encoded %d bytes, WireSize says %d", len(b), m.WireSize())
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			normalize(m)
			normalize(got)
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("round trip mismatch:\n give %#v\n got  %#v", m, got)
			}
		})
	}
}

// normalize maps nil and empty data slices to a canonical form so
// DeepEqual compares semantic content.
func normalize(m Message) {
	switch v := m.(type) {
	case *Request:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	case *Accept:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	case *AcceptData:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range messageFixtures() {
		b := Encode(m)
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(b[:cut]); err == nil {
				t.Fatalf("%s truncated to %d bytes decoded without error", m.MsgKind(), cut)
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b := Encode(&Cancel{TID: 1})
	b = append(b, 0xEE)
	if _, err := Decode(b); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0x7F, 0, 0}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(tid uint64, pat uint32, arg int32, put, get uint16, data []byte) bool {
		m := &Request{
			TID:     TID(tid),
			Pattern: WellKnownPattern(uint64(pat)),
			Arg:     arg,
			PutSize: uint32(put),
			GetSize: uint32(get),
			HasData: len(data) > 0,
			Data:    data,
		}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		g, ok := got.(*Request)
		if !ok {
			return false
		}
		return g.TID == m.TID && g.Pattern == m.Pattern && g.Arg == m.Arg &&
			g.PutSize == m.PutSize && g.GetSize == m.GetSize &&
			g.HasData == m.HasData && bytes.Equal(g.Data, m.Data)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTransportRoundTrip(t *testing.T) {
	tests := []*TransportFrame{
		{Kind: TransportData, Src: 1, Dst: 2, Seq: 1, ConnOpen: true, Payload: Encode(&Cancel{TID: 3})},
		{Kind: TransportData, Src: 1, Dst: 2, Seq: 1, AckPresent: true, AckSeq: 1, Payload: Encode(&Accept{TID: 3})},
		{Kind: TransportAck, Src: 2, Dst: 1, Seq: 1, ConnOpen: true, Payload: Encode(&Accept{TID: 3, Arg: 1})},
		{Kind: TransportAck, Src: 2, Dst: 1, Seq: 0},
		{Kind: TransportNack, Src: 2, Dst: 1, Seq: 0, Err: NackBusy},
		{Kind: TransportNack, Src: 2, Dst: 1, Seq: 0, Err: ErrUnadvertised},
		{Kind: TransportDatagram, Src: 3, Dst: BroadcastMID, Seq: 0, Payload: Encode(&Discover{TID: 1, Pattern: 5})},
	}
	for _, f := range tests {
		t.Run(f.Kind.String(), func(t *testing.T) {
			b := EncodeTransport(f)
			if len(b) != f.WireSize() {
				t.Fatalf("encoded %d bytes, WireSize says %d", len(b), f.WireSize())
			}
			got, err := DecodeTransportShared(b)
			if err != nil {
				t.Fatalf("DecodeTransportShared: %v", err)
			}
			if len(got.Payload) == 0 {
				got.Payload = nil
			}
			if len(f.Payload) == 0 {
				f.Payload = nil
			}
			if !reflect.DeepEqual(f, got) {
				t.Fatalf("round trip mismatch:\n give %#v\n got  %#v", f, got)
			}
		})
	}
}

func TestTransportRejectsBadInput(t *testing.T) {
	good := EncodeTransport(&TransportFrame{Kind: TransportData, Src: 1, Dst: 2, Payload: []byte{1}})
	if _, err := DecodeTransportShared(good[:5]); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := DecodeTransportShared(good[:len(good)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0x99
	if _, err := DecodeTransportShared(bad); err == nil {
		t.Fatal("unknown transport kind accepted")
	}
}

func TestSignatureStrings(t *testing.T) {
	if got := (ServerSig{MID: 4, Pattern: 0o346}).String(); got != "<4,%346>" {
		t.Errorf("ServerSig.String() = %q", got)
	}
	if got := (RequesterSig{MID: 4, TID: 9}).String(); got != "<4,#9>" {
		t.Errorf("RequesterSig.String() = %q", got)
	}
}

// TestTransportRoundTripProperty fuzzes the transport codec.
func TestTransportRoundTripProperty(t *testing.T) {
	f := func(kindSel uint8, src, dst uint16, seq uint8, open, ackPresent bool, ackSeq uint8, errCode uint8, payload []byte) bool {
		kinds := []TransportKind{TransportData, TransportAck, TransportNack, TransportDatagram}
		in := &TransportFrame{
			Kind:       kinds[int(kindSel)%len(kinds)],
			Src:        MID(src),
			Dst:        MID(dst),
			Seq:        seq,
			ConnOpen:   open,
			AckPresent: ackPresent,
			AckSeq:     ackSeq,
			Err:        ErrCode(errCode),
			Payload:    payload,
		}
		out, err := DecodeTransportShared(EncodeTransport(in))
		if err != nil {
			return false
		}
		if len(out.Payload) == 0 {
			out.Payload = nil
		}
		if len(in.Payload) == 0 {
			in.Payload = nil
		}
		return reflect.DeepEqual(in, out)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanics: arbitrary bytes must decode cleanly or error.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		_, _ = DecodeTransportShared(b)
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeRequestSharesOneBuffer pins EncodeRequest's layout: the full
// encoding, then (with retransmissions) the data-less copy, in one
// exact-size buffer, and the message's Data re-pointed into the full
// encoding rather than left on the caller's buffer.
func TestEncodeRequestSharesOneBuffer(t *testing.T) {
	for _, withRetrans := range []bool{false, true} {
		put := []byte("put data")
		m := &Request{TID: 9, Pattern: WellKnownPattern(5), PutSize: uint32(len(put)), HasData: true, Data: put}
		want := Encode(m)
		full, retrans := EncodeRequest(m, withRetrans)
		if !bytes.Equal(full, want) {
			t.Fatalf("withRetrans=%v: full encoding %x, want %x", withRetrans, full, want)
		}
		if cap(full) != len(full) {
			t.Errorf("withRetrans=%v: full encoding has spare capacity %d", withRetrans, cap(full)-len(full))
		}
		if &m.Data[len(m.Data)-1] != &full[len(full)-1] {
			t.Errorf("withRetrans=%v: Data is not a view of the encoding", withRetrans)
		}
		put[0] = '!'
		if string(m.Data) != "put data" {
			t.Errorf("withRetrans=%v: Data followed the caller's buffer: %q", withRetrans, m.Data)
		}
		stripped := *m
		stripped.HasData, stripped.Data = false, nil
		switch {
		case !withRetrans && retrans != nil:
			t.Errorf("retrans = %x without withRetrans", retrans)
		case withRetrans && !bytes.Equal(retrans, Encode(&stripped)):
			t.Errorf("retrans = %x, want the data-less encoding %x", retrans, Encode(&stripped))
		}
	}
}

// TestDecodeOwnedKeepsTheBuffer checks that DecodeOwned's data is a view of
// the buffer handed over while Decode's is a copy, and that both decode the
// same message.
func TestDecodeOwnedKeepsTheBuffer(t *testing.T) {
	b := Encode(&Accept{TID: 4, Arg: 2, GetSize: 16, Data: []byte("reply data")})
	copied, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := DecodeOwned(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(copied, owned) {
		t.Fatalf("Decode %+v, DecodeOwned %+v", copied, owned)
	}
	b[len(b)-1] = '!'
	if got := string(copied.(*Accept).Data); got != "reply data" {
		t.Errorf("Decode's data follows the buffer: %q", got)
	}
	if got := string(owned.(*Accept).Data); got != "reply dat!" {
		t.Errorf("DecodeOwned's data is not a view of the buffer: %q", got)
	}
}
