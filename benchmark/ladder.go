package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"soda"
	"soda/faults"
	"soda/internal/bus"
	"soda/internal/deltat"
	"soda/internal/frame"
	"soda/internal/internet"
	"soda/internal/netx"
	"soda/internal/sim"
	"soda/internal/wire"
	"soda/obs"
	"soda/sweep"
)

// The ladder measures each layer of the repository — its packages — through
// the layer's public functions, with nothing above it: each rung drives one
// layer over the rungs it calls, so a layer's own time is its rung less
// those, weighted by calls per operation. The rungs use fixed inputs and
// kernel seed 1 whatever the run's -seed, so that their virtual-time
// readings repeat exactly.

// ladderReps repetitions of every timed loop; the median is reported.
const ladderReps = 5

// timeLoop runs loop(n) ladderReps times and reports the median host
// nanoseconds and the median allocations per iteration.
func timeLoop(n int, loop func(n int)) (ns, allocs float64) {
	var nss, as []float64
	for rep := 0; rep < ladderReps; rep++ {
		m0, t0 := readMem(), nowNS()
		loop(n)
		t1, m1 := nowNS(), readMem()
		nss = append(nss, float64(t1-t0)/float64(n))
		as = append(as, float64(m1.mallocs-m0.mallocs)/float64(n))
	}
	return median(nss), median(as)
}

// ladderSeed generates the inputs of the rungs that run whole programs.
const ladderSeed = 1

// ladder runs every rung and returns the per-layer metrics by name.
func ladder(scale float64) map[string]float64 {
	m := map[string]float64{}
	in := generate(ladderSeed)
	// Every rung but the last two is one thread of control and runs on one
	// P, as the sequential workloads do; those two get every processor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frameRung(m, scale)
	simRung(m, scale)
	busRung(m, scale)
	deltatRung(m, scale)
	coreRung(m, in, scale)
	internetRung(m, scale)
	runtime.GOMAXPROCS(hostCPUs)
	netxRung(m, scale)
	sweepRung(m, in, scale)
	return m
}

// sink keeps the compiler from discarding a measured call's result.
var sink int

func fixedBytes(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

// frameRung: encode and decode of the two frames that carry the workloads —
// a 64-byte REQUEST inside a DATA frame, and a 1000-byte FRAG.
func frameRung(m map[string]float64, scale float64) {
	n := scaledOps(200_000, scale, 100)
	req := &frame.Request{TID: 7, Pattern: echoPattern, PutSize: 30, GetSize: smallGetSize, HasData: true, Data: fixedBytes(30)}
	var msgBuf, rawBuf []byte
	encode := func(n int) {
		for i := 0; i < n; i++ {
			msgBuf = frame.AppendMessage(msgBuf[:0], req)
			rawBuf = frame.AppendTransport(rawBuf[:0], &frame.TransportFrame{Kind: frame.TransportData, Src: 2, Dst: 1, Seq: 1, ConnOpen: true, Payload: msgBuf})
		}
	}
	m["frame.encode_ns"], m["frame.encode_allocs"] = timeLoop(n, encode)
	raw := append([]byte(nil), rawBuf...)
	m["frame.decode_ns"], m["frame.decode_allocs"] = timeLoop(n, func(n int) {
		for i := 0; i < n; i++ {
			tf, err := frame.DecodeTransportShared(raw)
			if err != nil {
				panic(err)
			}
			msg, err := frame.Decode(tf.Payload)
			if err != nil {
				panic(err)
			}
			sink += msg.WireSize()
		}
	})

	frag := &frame.TransportFrame{Kind: frame.TransportFrag, Src: 2, Dst: 1, Seq: 9, MsgSeq: 3, FragIndex: 1, Payload: fixedBytes(1000)}
	m["frame.bulk_encode_ns"], _ = timeLoop(n, func(n int) {
		for i := 0; i < n; i++ {
			rawBuf = frame.AppendTransport(rawBuf[:0], frag)
		}
	})
	raw = append([]byte(nil), rawBuf...)
	m["frame.bulk_decode_ns"], _ = timeLoop(n, func(n int) {
		for i := 0; i < n; i++ {
			tf, err := frame.DecodeTransportShared(raw)
			if err != nil {
				panic(err)
			}
			sink += len(tf.Payload)
		}
	})
}

// simRung: the cost of one scheduler event with a thousand timers pending,
// and of one process switch (two processes taking turns with Hold).
func simRung(m map[string]float64, scale float64) {
	n := scaledOps(200_000, scale, 100)
	m["sim.event_ns"], m["sim.event_allocs"] = timeLoop(n, func(n int) {
		k := sim.New(1)
		k.SetEventLimit(1 << 62)
		for i := 0; i < 1000; i++ {
			k.At(time.Hour+time.Duration(i)*time.Millisecond, func() {})
		}
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				k.After(time.Microsecond, tick)
			}
		}
		k.At(0, tick)
		if err := k.RunUntil(time.Hour - time.Second); err != nil {
			panic(err)
		}
	})
	m["sim.proc_switch_ns"], _ = timeLoop(n, func(n int) {
		k := sim.New(1)
		k.SetEventLimit(1 << 62)
		turns := func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				p.Hold(2 * time.Microsecond)
			}
		}
		k.Spawn("ping", turns)
		k.At(time.Microsecond, func() { k.Spawn("pong", turns) })
		if err := k.Run(); err != nil {
			panic(err)
		}
	})
}

// datagram is a well-formed transport frame of payload bytes from src to
// dst, as the medium rungs send it.
func datagram(src, dst frame.MID, payload int) []byte {
	return frame.EncodeTransport(&frame.TransportFrame{Kind: frame.TransportDatagram, Src: src, Dst: dst, Payload: fixedBytes(payload)})
}

// busRung: one frame from Iface.Send to its delivery on a two-interface
// bus, and one broadcast to 256 attached interfaces.
func busRung(m map[string]float64, scale float64) {
	n := scaledOps(200_000, scale, 100)
	m["bus.send_deliver_ns"], m["bus.send_allocs"] = timeLoop(n, func(n int) {
		k := sim.New(1)
		k.SetEventLimit(1 << 62)
		b := bus.New(k, bus.DefaultConfig())
		to2, to1 := datagram(1, 2, 48), datagram(2, 1, 48)
		var if1, if2 *bus.Iface
		left := n
		if1, _ = b.Attach(1, func([]byte) {
			if left--; left > 0 {
				if1.Send(2, to2)
			}
		})
		if2, _ = b.Attach(2, func([]byte) {
			if left--; left > 0 {
				if2.Send(1, to1)
			}
		})
		if1.Send(2, to2)
		if err := k.Run(); err != nil {
			panic(err)
		}
	})

	const receivers = 256
	nb := scaledOps(2_000, scale, 10)
	m["bus.broadcast_deliver_ns"], _ = timeLoop(nb, func(n int) {
		k := sim.New(1)
		k.SetEventLimit(1 << 62)
		b := bus.New(k, bus.DefaultConfig())
		raw := datagram(1, frame.BroadcastMID, 48)
		heard := 0
		for mid := frame.MID(2); mid < 2+receivers; mid++ {
			if _, err := b.Attach(mid, func([]byte) { heard++ }); err != nil {
				panic(err)
			}
		}
		sender, _ := b.Attach(1, func([]byte) {})
		for i := 0; i < n; i++ {
			k.At(time.Duration(i)*10*time.Millisecond, func() { sender.Send(frame.BroadcastMID, raw) })
		}
		if err := k.Run(); err != nil {
			panic(err)
		}
		if heard != n*receivers {
			panic("bus rung: a broadcast was not heard by every interface")
		}
	})
}

// deltatPair builds two Delta-t endpoints on one bus; the second one
// acknowledges everything.
func deltatPair(cfg deltat.Config, loss float64) (*sim.Kernel, *deltat.Endpoint) {
	k := sim.New(1)
	k.SetEventLimit(1 << 62)
	busCfg := bus.DefaultConfig()
	busCfg.LossProb = loss
	b := bus.New(k, busCfg)
	ack := deltat.Hooks{OnData: func(frame.MID, []byte) deltat.Decision { return deltat.Decision{Verdict: deltat.VerdictAck} }}
	sender, err := deltat.New(k, b.Wire(), 1, cfg, ack)
	if err != nil {
		panic(err)
	}
	if _, err := deltat.New(k, b.Wire(), 2, cfg, ack); err != nil {
		panic(err)
	}
	return k, sender
}

// deltatRung: one reliable message from Send to its completion callback —
// 64 bytes stop-and-wait on a clean bus, and 5000 bytes through the
// windowed engine with 5% loss.
func deltatRung(m map[string]float64, scale float64) {
	stream := func(cfg deltat.Config, loss float64, size int, virtUS *float64) func(n int) {
		payload := fixedBytes(size)
		return func(n int) {
			k, sender := deltatPair(cfg, loss)
			left := n
			var next func(deltat.Result)
			next = func(deltat.Result) {
				if left--; left > 0 {
					sender.Send(2, payload, nil, next)
				}
			}
			sender.Send(2, payload, nil, next)
			if err := k.Run(); err != nil {
				panic(err)
			}
			*virtUS = float64(k.Now().Microseconds()) / float64(n)
		}
	}
	var virt float64
	m["deltat.msg_ns"], m["deltat.msg_allocs"] = timeLoop(scaledOps(50_000, scale, 50), stream(deltat.DefaultConfig(), 0, 64, &virt))
	m["deltat.msg_virt_us"] = virt
	windowed := deltat.DefaultConfig()
	windowed.Window = 8
	m["deltat.bulk_msg_ns"], m["deltat.bulk_msg_allocs"] = timeLoop(scaledOps(5_000, scale, 20), stream(windowed, 0.05, 5000, &virt))
	m["deltat.bulk_msg_virt_us"] = virt
}

// coreRung: the kernel through soda.Network. A short traced round of
// rtt_small gives the round trip, the time inside the handler's ACCEPT call
// and the model's own split of the operation's virtual time; the same round
// with a tracer and a metrics registry attached gives the cost of
// observability; and the boot loop is the fixed cost of every sweep run.
func coreRung(m map[string]float64, in *inputs, scale float64) {
	const rttScale = 0.1
	plain := simWorkloads["rtt_small"]
	var base, observed []round
	for rep := 0; rep < ladderReps; rep++ {
		base = append(base, plain.run(in, rttScale*scale, true, false))
		withObs := plain
		withObs.options = []soda.Option{soda.WithTracer(obs.NewTracer()), soda.WithMetrics(obs.NewRegistry())}
		observed = append(observed, withObs.run(in, rttScale*scale, true, false))
	}
	nsPerOp := perOp(func(r round) float64 { return float64(r.wallNS) })
	first := base[0]
	m["core.rtt_ns"] = median(perRound(base, nsPerOp))
	m["core.rtt_self_ns"] = m["core.rtt_ns"] - first.counters["core.messages_per_op"]*m["deltat.msg_ns"]
	m["core.accept_call_ns"] = median(perRound(base, func(r round) float64 { return meanSpanNS(r.spans, "core.accept") }))
	if m["core.rtt_ns"] > 0 {
		m["obs.enabled_overhead_ratio"] = median(perRound(observed, nsPerOp)) / m["core.rtt_ns"]
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "obs.virt_") {
			m[d.Name] = first.counters[d.Name]
		}
	}

	// Boot as BenchmarkBoot does: NewNetwork, two AddNodes and Boots, the
	// first DISCOVER and one EXCHANGE. The networks are ended after the
	// clock has stopped.
	n := scaledOps(300, scale, 3)
	var ns, allocs, bytes []float64
	for rep := 0; rep < ladderReps; rep++ {
		booted := make([]*soda.Network, 0, n)
		m0, t0 := readMem(), nowNS()
		for i := 0; i < n; i++ {
			var last soda.CallResult
			nw := soda.NewNetwork(soda.WithSeed(1))
			nw.Register("server", echoServer(in.reply(), make([]*recorder, 3)))
			nw.Register("client", soda.Program{Task: func(c *soda.Client) {
				srv, _ := c.Discover(echoPattern)
				last = c.BExchange(srv, soda.OK, in.smallPut(0), smallGetSize)
			}})
			bootPair(nw)
			// The run ends with the server parked in its handler, which the
			// kernel reports as a suspension; the client's result is the
			// success signal.
			_ = nw.RunToCompletion()
			if last.Status != soda.StatusSuccess {
				panic("core rung: the exchange after boot failed")
			}
			booted = append(booted, nw)
		}
		t1, m1 := nowNS(), readMem()
		ns = append(ns, float64(t1-t0)/float64(n))
		allocs = append(allocs, float64(m1.mallocs-m0.mallocs)/float64(n))
		bytes = append(bytes, float64(m1.bytes-m0.bytes)/float64(n))
		for _, nw := range booted {
			if err := endPrograms(nw, 2, pairServer); err != nil {
				panic(err)
			}
		}
	}
	m["core.boot_ns"], m["core.boot_allocs"], m["core.boot_bytes"] = median(ns), median(allocs), median(bytes)
}

// internetRung: one frame from a machine on one segment to its delivery on
// another, through one gateway; what that adds to a delivery on one bus.
func internetRung(m map[string]float64, scale float64) {
	ns, allocs := timeLoop(scaledOps(100_000, scale, 100), func(n int) {
		k := sim.New(1)
		k.SetEventLimit(1 << 62)
		topo := internet.Star(2)
		topo.Locate = func(mid frame.MID) int { return int(mid) - 1 }
		inet, err := internet.New(k, bus.DefaultConfig(), topo)
		if err != nil {
			panic(err)
		}
		to2, to1 := datagram(1, 2, 48), datagram(2, 1, 48)
		var if1, if2 *bus.Iface
		left := n
		if1, _ = inet.Bus(0).Attach(1, func([]byte) {
			if left--; left > 0 {
				if1.Send(2, to2)
			}
		})
		if2, _ = inet.Bus(1).Attach(2, func([]byte) {
			if left--; left > 0 {
				if2.Send(1, to1)
			}
		})
		if1.Send(2, to2)
		if err := k.Run(); err != nil {
			panic(err)
		}
		if got := inet.Stats().FramesForwarded; got != uint64(n) {
			panic("internet rung: a frame did not cross the gateway")
		}
	})
	m["internet.forward_ns"] = ns - m["bus.send_deliver_ns"]
	m["internet.forward_allocs"] = allocs - m["bus.send_allocs"]
}

// netxRung: the stream framer on a 100-byte frame, and a raw-frame echo
// between two socket networks over host loopback — no Delta-t above and no
// kernel charges, so what is left is the driver, the inbox and the TCP
// write path.
func netxRung(m map[string]float64, scale float64) {
	n := scaledOps(200_000, scale, 100)
	raw := datagram(1, 2, 100-16)
	var buf []byte
	var writeAllocs, readAllocs float64
	m["netx.framer_write_ns"], writeAllocs = timeLoop(n, func(n int) {
		for i := 0; i < n; i++ {
			buf = netx.AppendFrame(buf[:0], raw)
		}
	})
	stream := bytes.Repeat(buf, 64)
	rd := bytes.NewReader(stream)
	m["netx.framer_read_ns"], readAllocs = timeLoop(n, func(n int) {
		for i := 0; i < n; i++ {
			if rd.Len() == 0 {
				rd.Reset(stream)
			}
			got, err := netx.ReadFrame(rd, netx.MaxFrameLen)
			if err != nil {
				panic(err)
			}
			sink += len(got)
		}
	})
	m["netx.framer_allocs"] = writeAllocs + readAllocs

	echoes := scaledOps(3_000, scale, 30)
	open := func(mid frame.MID) (*netx.Network, *sim.Kernel) {
		k := sim.New(int64(mid))
		k.SetEventLimit(1 << 62)
		nx, err := netx.New(k, netx.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			panic(err)
		}
		return nx, k
	}
	a, ka := open(1)
	b, _ := open(2)
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	to2, to1 := raw, datagram(2, 1, 100-16)
	rtts := make([]uint32, 0, echoes)
	var sentAt, firstAt int64
	var ifA, ifB wire.Iface
	var err error
	ifA, err = a.Attach(1, func([]byte) {
		now := nowNS()
		if firstAt == 0 {
			firstAt = now
		}
		rtts = append(rtts, uint32(min(now-sentAt, math.MaxUint32)))
		if len(rtts) < echoes {
			sentAt = nowNS()
			ifA.Send(2, to2)
		}
	})
	if err != nil {
		panic(err)
	}
	ifB, err = b.Attach(2, func([]byte) { ifB.Send(1, to1) })
	if err != nil {
		panic(err)
	}
	ka.At(0, func() {
		sentAt = nowNS()
		ifA.Send(2, to2)
	})
	b.Start(nil)
	startAt := nowNS()
	a.Start(func() bool { return len(rtts) >= echoes })
	finished := a.Wait(time.Duration(echoes)*50*time.Millisecond + 5*time.Second)
	dropped := a.Stats().FramesLost + b.Stats().FramesLost
	errA, errB := a.Close(), b.Close()
	if !finished || errA != nil || errB != nil {
		panic("netx rung: the echo did not finish or a socket goroutine leaked")
	}
	sorted := sortedCopy(rtts)
	m["netx.frame_rtt_p50_us"] = float64(percentile(sorted, 50)) / 1e3
	m["netx.frame_rtt_p99_us"] = float64(percentile(sorted, tailPercentile(len(sorted)))) / 1e3
	m["netx.dial_ms"] = float64(firstAt-startAt) / 1e6
	m["netx.frames_dropped"] = float64(dropped)
}

// sweepRung: the pieces of chaos_sweep — generating a fault plan, one run
// on one worker, what the invariant checkers add, and how well runs spread
// over the host's processors.
func sweepRung(m map[string]float64, in *inputs, scale float64) {
	mids := []faults.MID{1, 2, 3, 4, 5}
	m["faults.plan_gen_ns"], _ = timeLoop(scaledOps(20_000, scale, 20), func(n int) {
		for i := 0; i < n; i++ {
			plan := faults.Generate(rand.New(rand.NewSource(int64(i))), faults.GenConfig{Horizon: sweepHorizon, MIDs: mids})
			sink += len(plan.Events)
		}
	})

	seeds := scaledOps(4, scale, 1)
	workers := hostCPUs
	sweepNS := func(workers int, checks bool) float64 {
		var ns []float64
		for rep := 0; rep < ladderReps; rep++ {
			t0 := nowNS()
			for i := 0; i < seeds; i++ {
				if _, err := sweep.Run(in.sweepSpec(i, sweepNodes, checks), workers); err != nil {
					panic(err)
				}
			}
			ns = append(ns, float64(nowNS()-t0))
		}
		return median(ns)
	}
	runs := float64(seeds * len(sweepPlanSeeds) * len(sweepNodes))
	one, all, unchecked := sweepNS(1, true), sweepNS(workers, true), sweepNS(workers, false)
	m["sweep.run_ns"] = one / runs
	m["sweep.par_efficiency"] = one / (float64(workers) * all)
	m["faults.check_overhead_ratio"] = all / unchecked
}
