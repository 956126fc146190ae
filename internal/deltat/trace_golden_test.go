package deltat

import (
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"soda/internal/bus"
	"soda/internal/frame"
	"soda/internal/golden"
	"soda/internal/sim"
	"soda/internal/wire"
)

// The transport trace golden: a compact matrix of framings × wire
// conditions × upper-layer verdicts, each cell rendered as a transcript of
// every transmitted frame (its send time, endpoints, decoded transport
// header, size and a CRC-32 of its bytes), every observer event, and the
// final virtual time, pinned as testdata/trace_<cell>.golden. Any change
// to what the transport puts on the wire, when, or what it reports moves a
// line; a refactor of the engine's internals must move none.

// traceNet wraps a frame medium so every Send is written to the cell's
// transcript before it reaches the wire.
type traceNet struct {
	wire.Network
	k   *sim.Kernel
	out strings.Builder
}

func (n *traceNet) Attach(mid frame.MID, recv func(raw []byte)) (wire.Iface, error) {
	i, err := n.Network.Attach(mid, recv)
	if err != nil {
		return nil, err
	}
	return &traceIface{Iface: i, n: n, mid: mid}, nil
}

type traceIface struct {
	wire.Iface
	n   *traceNet
	mid frame.MID
}

func (i *traceIface) Send(dst frame.MID, raw []byte) {
	f, err := frame.DecodeTransportShared(raw)
	if err != nil {
		panic(err) // the transport sends only frames it encoded
	}
	fmt.Fprintf(&i.n.out, "%v %d>%d %v seq=%d open=%t ack=%t/%d err=%d frag=%d.%d end=%t urgent=%t sack=%x %dB %08x\n",
		i.n.k.Now(), i.mid, dst, f.Kind, f.Seq, f.ConnOpen, f.AckPresent, f.AckSeq, f.Err,
		f.MsgSeq, f.FragIndex, f.FragEnd, f.Urgent, f.SackBits, len(raw), crc32.ChecksumIEEE(raw))
	i.Iface.Send(dst, raw)
}

// blackout drops every delivery inside [from, to) and defers to base (if
// any) outside it.
type blackout struct {
	from, to sim.Time
	base     bus.FaultModel
}

func (s *blackout) Judge(now sim.Time, src, dst frame.MID, raw []byte) bus.FaultAction {
	if now >= s.from && now < s.to {
		return bus.FaultAction{Drop: true}
	}
	if s.base != nil {
		return s.base.Judge(now, src, dst, raw)
	}
	return bus.FaultAction{}
}

// goldenIdx recovers the message index from a golden payload's "mNNN" tag.
func goldenIdx(p []byte) int {
	n := 0
	for _, c := range p[1:4] {
		n = n*10 + int(c-'0')
	}
	return n
}

// runTraceCell runs one golden cell and returns its transcript and whether any
// endpoint reported a peer dead. Node 1 streams twelve messages of mixed
// sizes to node 2 and node 2 sends four back; node 2 answers by message
// index with each verdict in turn (ack with reply, busy then ack, error,
// hold that expires, deferred ack, hold resolved by a reverse send), node 1
// alternates deferred and plain acks.
func runTraceCell(t *testing.T, scenario string, window int) (string, bool) {
	t.Helper()
	k := sim.New(5)
	k.SetEventLimit(4_000_000)
	b := bus.New(k, bus.DefaultConfig())
	net := &traceNet{Network: b.Wire(), k: k}
	peerDead := false
	cfg := DefaultConfig()
	cfg.Window = window
	cfg.Observer = func(ev Event) {
		if ev.Kind == EvPeerDead {
			peerDead = true
		}
		fmt.Fprintf(&net.out, "%v %v node=%d peer=%d seq=%d attempt=%d\n", ev.At, ev.Kind, ev.Node, ev.Peer, ev.Seq, ev.Attempt)
	}
	eps := map[frame.MID]*Endpoint{}
	busied := map[int]bool{}
	var send func(src, dst frame.MID, idx, size int)
	reply := func(p []byte) []byte { return append([]byte("r"), p[:4]...) }
	hooks := map[frame.MID]Hooks{
		1: {OnData: func(_ frame.MID, p []byte) Decision {
			if goldenIdx(p)%2 == 0 {
				return Decision{Verdict: VerdictAckDeferred}
			}
			return Decision{Verdict: VerdictAck, Reply: reply(p)}
		}},
		2: {OnData: func(src frame.MID, p []byte) Decision {
			idx := goldenIdx(p)
			switch idx % 6 {
			case 1:
				if !busied[idx] {
					busied[idx] = true
					return Decision{Verdict: VerdictBusy}
				}
			case 2:
				return Decision{Verdict: VerdictError, Err: frame.ErrUnadvertised}
			case 3:
				return Decision{Verdict: VerdictHold, HoldTimeout: 2 * time.Millisecond, ExpiryVerdict: VerdictAck}
			case 4:
				return Decision{Verdict: VerdictAckDeferred}
			case 5:
				k.After(time.Millisecond, func() {
					eps[2].SendResolvingHold(src, goldenPayload(200+idx, 700), nil, nil)
				})
				return Decision{Verdict: VerdictHold, HoldTimeout: -1}
			}
			return Decision{Verdict: VerdictAck, Reply: reply(p)}
		}},
	}
	for _, mid := range []frame.MID{1, 2} {
		ep, err := New(k, net, mid, cfg, hooks[mid])
		if err != nil {
			t.Fatalf("New(%d): %v", mid, err)
		}
		eps[mid] = ep
	}
	resubmit, reverse := false, true
	switch scenario {
	case "clean":
	case "lossy":
		b.SetFaultModel(&wireSchedule{k: k, cutoff: sim.Time(150 * time.Millisecond), loss: 0.05, dup: 0.03, corrupt: 0.02})
	case "blackout":
		from := sim.Time(20 * time.Millisecond)
		b.SetFaultModel(&blackout{from: from, to: from + sim.Time(cfg.DeadAfter()+60*time.Millisecond)})
		resubmit = true
	case "crash":
		// Node 2 sends nothing of its own, so nothing waits on the crashed
		// node and the cell pins crash and reboot without a peer-dead
		// verdict.
		reverse = false
		k.At(40*time.Millisecond, func() {
			eps[1].Crash()
			eps[1].Reboot(func() {
				for i := 20; i < 23; i++ {
					send(1, 2, i, 900)
				}
			})
		})
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	send = func(src, dst frame.MID, idx, size int) {
		p := goldenPayload(idx, size)
		var retrans []byte
		if idx%4 == 0 {
			retrans = p[:4] // stop-and-wait strips retransmissions
		}
		var cb func(Result)
		cb = func(res Result) {
			if res.Kind == ResultPeerDead && resubmit {
				eps[src].Send(dst, p, retrans, cb)
			}
		}
		eps[src].Send(dst, p, retrans, cb)
	}
	sizes := []int{40, 2600, 300, 4, 1100, 64}
	for i := 0; i < 12; i++ {
		i := i
		at := time.Duration(i) * 9 * time.Millisecond
		k.At(at, func() { send(1, 2, i, sizes[i%len(sizes)]) })
		if reverse && i%3 == 1 {
			k.At(at+4*time.Millisecond, func() { send(2, 1, 100+i, 500) })
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fmt.Fprintf(&net.out, "%v end\n", k.Now())
	return net.out.String(), peerDead
}

// goldenPayload is message idx's body: its "mNNN" tag, then filler.
func goldenPayload(idx, size int) []byte {
	p := make([]byte, size)
	copy(p, fmt.Sprintf("m%03d", idx))
	for j := 4; j < size; j++ {
		p[j] = byte(idx + j)
	}
	return p
}

// TestTransportTraceGolden pins every cell's transcript. peerDead marks
// the cells in which some endpoint reports a peer dead; it is asserted
// too, so the marks cannot drift from the runs.
func TestTransportTraceGolden(t *testing.T) {
	cells := []struct {
		scenario string
		window   int
		peerDead bool
	}{
		{"clean", 1, false},
		{"clean", 4, false},
		{"lossy", 1, false},
		{"lossy", 4, false},
		{"blackout", 1, true},
		{"blackout", 4, true},
		{"crash", 1, false},
		{"crash", 4, true},
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/w%d", c.scenario, c.window), func(t *testing.T) {
			tr, dead := runTraceCell(t, c.scenario, c.window)
			if again, _ := runTraceCell(t, c.scenario, c.window); again != tr {
				t.Fatalf("nondeterministic at %s", golden.Diff(tr, again))
			}
			golden.Check(t, fmt.Sprintf("trace_%s_w%d", c.scenario, c.window), tr)
			if dead != c.peerDead {
				t.Errorf("peer-dead verdict %v, golden %v", dead, c.peerDead)
			}
		})
	}
}
