package netx

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/sim"
)

// countingReader tracks how many bytes ReadFrame actually consumed, so
// the fuzz target can assert the re-encoded frames reproduce exactly the
// consumed prefix of the stream.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzStreamFramer throws arbitrary byte streams at ReadFrame and checks
// the framing invariants: no panic, every returned frame respects the
// length bounds, re-encoding the returned frames reproduces the consumed
// prefix byte-for-byte, and the terminal error is always classifiable —
// clean EOF at a record boundary, unexpected EOF inside one, or a framing
// error for a lying prefix. The committed corpus under
// testdata/fuzz/FuzzStreamFramer was captured from a real localhost run
// (see TestCaptureFramerCorpus).
func FuzzStreamFramer(f *testing.F) {
	f.Add([]byte{})                                             // empty stream
	f.Add(AppendFrame(nil, mkRaw(minFrameLen)))                 // one minimal frame
	f.Add(AppendFrame(AppendFrame(nil, mkRaw(32)), mkRaw(200))) // two frames
	f.Add([]byte{0x00, 0x00})                                   // truncated prefix
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})           // oversized length
	f.Add(AppendFrame(nil, mkRaw(minFrameLen-1)))               // runt length
	f.Add(AppendFrame(nil, mkRaw(64))[:20])                     // mid-frame EOF
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		var reencoded []byte
		var terminal error
		for {
			raw, err := ReadFrame(cr, MaxFrameLen)
			if err != nil {
				terminal = err
				break
			}
			if len(raw) < minFrameLen || len(raw) > MaxFrameLen {
				t.Fatalf("ReadFrame returned a %d-byte frame outside [%d, %d]",
					len(raw), minFrameLen, MaxFrameLen)
			}
			reencoded = AppendFrame(reencoded, raw)
		}
		switch {
		case terminal == io.EOF, errors.Is(terminal, io.ErrUnexpectedEOF):
			// Truncation class: everything before the cut must have framed.
		case IsFramingError(terminal):
			// A lying prefix: the connection would be dropped here.
		default:
			t.Fatalf("ReadFrame error is neither EOF class nor framing: %v", terminal)
		}
		if !bytes.Equal(reencoded, data[:len(reencoded)]) {
			t.Fatalf("re-encoded frames diverge from the consumed stream prefix")
		}
		if cr.n > len(data) {
			t.Fatalf("consumed %d bytes of a %d-byte stream", cr.n, len(data))
		}
	})
}

var captureCorpus = flag.Bool("capturecorpus", false,
	"rewrite testdata/fuzz/FuzzStreamFramer from a live localhost run")

// corpusDir is where go test's fuzzing machinery picks up committed seeds.
const corpusDir = "testdata/fuzz/FuzzStreamFramer"

// TestCaptureFramerCorpus runs a real localhost exchange with a delivery
// hook on both networks and checks every frame the wire actually carried
// round-trips through the stream framer. With -capturecorpus it also
// rewrites the committed fuzz seed corpus from the captured frames, so
// the fuzzer starts from genuine transport bytes rather than synthetic
// ones.
func TestCaptureFramerCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("live corpus capture opens real sockets")
	}
	var mu sync.Mutex
	var captured [][]byte
	capture := bus.Hooks{Delivery: func(e bus.DeliveryEvent) {
		mu.Lock()
		captured = append(captured, append([]byte(nil), e.Raw...))
		mu.Unlock()
	}}
	mk := func(mid frame.MID, hooks deltat.Hooks) *node {
		t.Helper()
		k := sim.New(int64(mid))
		k.SetEventLimit(2_000_000)
		n, err := New(k, Config{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		n.SetHooks(capture)
		if hooks.OnData == nil {
			hooks.OnData = func(frame.MID, []byte) deltat.Decision {
				return deltat.Decision{Verdict: deltat.VerdictAck}
			}
		}
		ep, err := deltat.New(k, n, mid, deltat.DefaultConfig(), hooks)
		if err != nil {
			t.Fatalf("deltat.New: %v", err)
		}
		return &node{k: k, n: n, ep: ep}
	}
	server := mk(2, deltat.Hooks{
		OnData: func(src frame.MID, payload []byte) deltat.Decision {
			return deltat.Decision{Verdict: deltat.VerdictAck, Reply: []byte("corpus pong")}
		},
	})
	client := mk(1, deltat.Hooks{})
	defer closeAll(t, server, client)
	server.n.SetPeer(1, client.n.Addr())
	client.n.SetPeer(2, server.n.Addr())
	var res *deltat.Result
	client.k.At(0, func() {
		client.ep.Send(2, bytes.Repeat([]byte("corpus ping "), 24), nil,
			func(got deltat.Result) { res = &got })
	})
	server.n.Start(nil)
	client.n.Start(func() bool { return res != nil })
	if !client.n.Wait(waitMax) {
		t.Fatal("client driver did not park: no ACK within the deadline")
	}
	if !server.n.WaitIdle(50*time.Millisecond, waitMax) {
		t.Fatal("server never went idle")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(captured) == 0 {
		t.Fatal("the delivery hook saw no frames on a completed exchange")
	}
	for i, raw := range captured {
		enc := AppendFrame(nil, raw)
		back, err := ReadFrame(bytes.NewReader(enc), MaxFrameLen)
		if err != nil {
			t.Fatalf("captured frame %d does not round-trip: %v", i, err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatalf("captured frame %d mutated in the framer", i)
		}
	}
	if !*captureCorpus {
		return
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// One seed per distinct frame, plus the whole session as one stream —
	// the multi-frame entry exercises record-boundary recovery.
	seen := make(map[string]bool)
	var stream []byte
	i := 0
	for _, raw := range captured {
		stream = AppendFrame(stream, raw)
		if seen[string(raw)] {
			continue
		}
		seen[string(raw)] = true
		writeCorpusEntry(t, fmt.Sprintf("live-frame-%02d", i), AppendFrame(nil, raw))
		i++
	}
	writeCorpusEntry(t, "live-session", stream)
	writeCorpusEntry(t, "live-session-truncated", stream[:len(stream)-3])
}

// writeCorpusEntry writes one seed in go test's fuzz corpus file format.
func writeCorpusEntry(t *testing.T, name string, data []byte) {
	t.Helper()
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
