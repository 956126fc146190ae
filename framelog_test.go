package soda

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/frame"
)

// fmtFrameLine is the definition of a Network.Trace line: the format the
// frame log was first written with. frameLog must reproduce its bytes.
func fmtFrameLine(prefix string, e bus.TapEvent) string {
	dst := fmt.Sprintf("%d", e.Dst)
	if e.Dst == BroadcastMID {
		dst = "broadcast"
	}
	return fmt.Sprintf("%s%12v  %3d -> %-9s %-6v %4dB\n", prefix, e.At, e.Src, dst, e.Kind, e.Size)
}

// onSegment returns e as heard on segment seg and the frame log that
// prints it: a flat network's log for seg < 0, a segmented one's
// otherwise, with the line prefix the oracle expects.
func onSegment(w io.Writer, seg int, e bus.TapEvent) (*frameLog, bus.TapEvent, string) {
	if seg < 0 {
		return &frameLog{w: w}, e, ""
	}
	e.Seg = seg
	return &frameLog{w: w, segmented: true}, e, fmt.Sprintf("s%d ", seg)
}

// writeLog records each Write as one entry.
type writeLog [][]byte

func (w *writeLog) Write(p []byte) (int, error) {
	*w = append(*w, bytes.Clone(p))
	return len(p), nil
}

func TestFrameLogMatchesFormat(t *testing.T) {
	data := bus.TapEvent{At: 1500 * time.Microsecond, Src: 1, Dst: 2, Kind: frame.TransportData, Size: 42}
	with := func(f func(e *bus.TapEvent)) bus.TapEvent {
		e := data
		f(&e)
		return e
	}
	cases := []struct {
		name string
		seg  int // -1: a flat network
		e    bus.TapEvent
	}{
		{"data", -1, data},
		{"broadcast", -1, with(func(e *bus.TapEvent) { e.Dst, e.Kind = BroadcastMID, frame.TransportDatagram })},
		{"wide MIDs", -1, with(func(e *bus.TapEvent) { e.Src, e.Dst = 1000, 65534 })},
		{"wide size", -1, with(func(e *bus.TapEvent) { e.Size = 10000 })},
		{"zero size", -1, with(func(e *bus.TapEvent) { e.Size = 0 })},
		{"unknown kind", -1, with(func(e *bus.TapEvent) { e.Kind = 9 })},
		{"long kind", -1, with(func(e *bus.TapEvent) { e.Kind = frame.TransportFragAck })},
		{"time zero", -1, with(func(e *bus.TapEvent) { e.At = 0 })},
		{"sub-microsecond", -1, with(func(e *bus.TapEvent) { e.At = 750 })},
		{"microseconds", -1, with(func(e *bus.TapEvent) { e.At = 12 * time.Microsecond })},
		{"milliseconds", -1, with(func(e *bus.TapEvent) { e.At = 12345678 })},
		{"hours", -1, with(func(e *bus.TapEvent) { e.At = 1234*time.Hour + 5*time.Minute + 6*time.Second + 7 })},
		{"segment prefix", 3, data},
		{"two-digit segment", 12, with(func(e *bus.TapEvent) { e.Dst = BroadcastMID })},
	}
	var w writeLog
	for _, c := range cases {
		w = w[:0]
		l, e, prefix := onSegment(&w, c.seg, c.e)
		l.line(e)
		want := fmtFrameLine(prefix, e)
		if len(w) != 1 {
			t.Errorf("%s: %d writes, want 1", c.name, len(w))
			continue
		}
		if got := string(w[0]); got != want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, want)
		}
	}
}

func TestFrameLogMatchesFormatProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []frame.TransportKind{
		frame.TransportData, frame.TransportAck, frame.TransportNack, frame.TransportDatagram,
		frame.TransportFrag, frame.TransportFragAck, 0, 200,
	}
	var buf bytes.Buffer
	for i := 0; i < 2000; i++ {
		e := bus.TapEvent{
			At:   time.Duration(rng.Int63n(1 << uint(1+rng.Intn(52)))),
			Src:  frame.MID(rng.Intn(1 << uint(1+rng.Intn(16)))),
			Dst:  frame.MID(rng.Intn(1 << uint(1+rng.Intn(16)))),
			Kind: kinds[rng.Intn(len(kinds))],
			Size: rng.Intn(1 << uint(1+rng.Intn(20))),
		}
		seg := -1
		if rng.Intn(2) == 0 {
			seg = rng.Intn(20)
		}
		l, e, prefix := onSegment(&buf, seg, e)
		buf.Reset()
		l.line(e)
		if got, want := buf.String(), fmtFrameLine(prefix, e); got != want {
			t.Fatalf("%+v, prefix %q:\n got %q\nwant %q", e, prefix, got, want)
		}
	}
}

func TestFrameLogAllocatesNothing(t *testing.T) {
	l := &frameLog{w: io.Discard, segmented: true}
	events := []bus.TapEvent{
		{At: 1500 * time.Microsecond, Src: 1, Dst: 2, Kind: frame.TransportData, Size: 42, Seg: 1},
		{At: 3 * time.Hour, Src: 1000, Dst: BroadcastMID, Kind: frame.TransportDatagram, Size: 12345, Seg: 1},
		{At: 750, Src: 7, Dst: 65000, Kind: frame.TransportFragAck, Size: 0, Seg: 12},
	}
	for _, e := range events {
		l.line(e) // grow the reused buffer first
		if a := testing.AllocsPerRun(100, func() { l.line(e) }); a != 0 {
			t.Errorf("%+v: %.1f allocations per logged frame, want 0", e, a)
		}
	}
}
