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
		name, prefix string
		e            bus.TapEvent
	}{
		{"data", "", data},
		{"broadcast", "", with(func(e *bus.TapEvent) { e.Dst, e.Kind = BroadcastMID, frame.TransportDatagram })},
		{"wide MIDs", "", with(func(e *bus.TapEvent) { e.Src, e.Dst = 1000, 65534 })},
		{"wide size", "", with(func(e *bus.TapEvent) { e.Size = 10000 })},
		{"zero size", "", with(func(e *bus.TapEvent) { e.Size = 0 })},
		{"unknown kind", "", with(func(e *bus.TapEvent) { e.Kind = 9 })},
		{"long kind", "", with(func(e *bus.TapEvent) { e.Kind = frame.TransportFragAck })},
		{"time zero", "", with(func(e *bus.TapEvent) { e.At = 0 })},
		{"sub-microsecond", "", with(func(e *bus.TapEvent) { e.At = 750 })},
		{"microseconds", "", with(func(e *bus.TapEvent) { e.At = 12 * time.Microsecond })},
		{"milliseconds", "", with(func(e *bus.TapEvent) { e.At = 12345678 })},
		{"hours", "", with(func(e *bus.TapEvent) { e.At = 1234*time.Hour + 5*time.Minute + 6*time.Second + 7 })},
		{"segment prefix", "s3 ", data},
		{"two-digit segment", "s12 ", with(func(e *bus.TapEvent) { e.Dst = BroadcastMID })},
	}
	var w writeLog
	l := &frameLog{w: &w}
	for _, c := range cases {
		w = w[:0]
		l.line(c.prefix, c.e)
		want := fmtFrameLine(c.prefix, c.e)
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
	l := &frameLog{w: &buf}
	for i := 0; i < 2000; i++ {
		e := bus.TapEvent{
			At:   time.Duration(rng.Int63n(1 << uint(1+rng.Intn(52)))),
			Src:  frame.MID(rng.Intn(1 << uint(1+rng.Intn(16)))),
			Dst:  frame.MID(rng.Intn(1 << uint(1+rng.Intn(16)))),
			Kind: kinds[rng.Intn(len(kinds))],
			Size: rng.Intn(1 << uint(1+rng.Intn(20))),
		}
		prefix := ""
		if rng.Intn(2) == 0 {
			prefix = fmt.Sprintf("s%d ", rng.Intn(20))
		}
		buf.Reset()
		l.line(prefix, e)
		if got, want := buf.String(), fmtFrameLine(prefix, e); got != want {
			t.Fatalf("%+v, prefix %q:\n got %q\nwant %q", e, prefix, got, want)
		}
	}
}

func TestFrameLogAllocatesNothing(t *testing.T) {
	l := &frameLog{w: io.Discard}
	events := []bus.TapEvent{
		{At: 1500 * time.Microsecond, Src: 1, Dst: 2, Kind: frame.TransportData, Size: 42},
		{At: 3 * time.Hour, Src: 1000, Dst: BroadcastMID, Kind: frame.TransportDatagram, Size: 12345},
		{At: 750, Src: 7, Dst: 65000, Kind: frame.TransportFragAck, Size: 0},
	}
	for _, e := range events {
		l.line("s1 ", e) // grow the reused buffer first
		if a := testing.AllocsPerRun(100, func() { l.line("s1 ", e) }); a != 0 {
			t.Errorf("%+v: %.1f allocations per logged frame, want 0", e, a)
		}
	}
}
