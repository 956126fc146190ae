package main

import (
	"time"

	"soda"
)

// socket_rtt at scale 1: warm-up and timed round trips per round. One round
// trip costs about 8.5 ms of wall time whatever the host, because netx paces
// the kernel's virtual charges on the wall clock.
const (
	socketWarmOps  = 50
	socketTimedOps = 400
	// socketOpCap bounds the wait for one round trip before the round is
	// declared stuck.
	socketOpCap = 250 * time.Millisecond
)

// scaledOps applies the common -scale factor to a scale-1 count, never
// going below floor.
func scaledOps(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale+0.5), floor)
}

// socketRound runs the rtt_small exchange between two socket-transport
// networks in this process: server on one, client on the other, host
// loopback TCP between them. The client program marks the phase boundaries
// itself, on its network's driver goroutine; the harness only waits.
func socketRound(in *inputs, scale float64, traced bool) round {
	r := round{traced: traced, counters: map[string]float64{}, startNS: nowNS()}
	warm, timed := scaledOps(socketWarmOps, scale, 5), scaledOps(socketTimedOps, scale, 20)

	srv := soda.NewNetwork(soda.WithSeed(in.netSeed), soda.WithSocketTransport("127.0.0.1:0"))
	cli := soda.NewNetwork(soda.WithSeed(in.netSeed+1), soda.WithSocketTransport("127.0.0.1:0"))
	srv.SetSocketPeer(2, cli.SocketAddr())
	cli.SetSocketPeer(1, srv.SocketAddr())

	recs := []*recorder{nil, newRecorder(1, 0, traced), newRecorder(1, warm+timed, traced)}
	var (
		t1, t2 int64
		m0, m1 memCounters
		v0, v1 time.Duration
		done   bool
	)
	srv.Register("server", echoServer(in.reply(), recs))
	cli.Register("client", exchangeClient(in, recs, func(c *soda.Client, n int) {
		switch n {
		case warm:
			recs[2].reset()
			srv.ResetStats()
			cli.ResetStats()
			v0, m0, t1 = c.Now(), readMem(), nowNS()
		case warm + timed:
			t2, m1, v1 = nowNS(), readMem(), c.Now()
			done = true
			c.WaitUntil(func() bool { return false })
		}
	}))
	srv.MustAddNode(1)
	srv.MustBoot(1, "server")
	cli.MustAddNode(2)
	cli.MustBoot(2, "client")
	srv.StartSocket(nil)
	cli.StartSocket(func() bool { return done })
	if !cli.WaitSocket(time.Duration(warm+timed)*socketOpCap + 5*time.Second) {
		r.problem("client did not finish %d round trips", warm+timed)
	}
	sst, cst := srv.Stats(), cli.Stats()
	if err := cli.CloseSocket(); err != nil {
		r.problem("client network: %v", err)
	}
	if err := srv.CloseSocket(); err != nil {
		r.problem("server network: %v", err)
	}
	if err := cli.SocketErr(); err != nil {
		r.problem("client driver: %v", err)
	}
	if err := srv.SocketErr(); err != nil {
		r.problem("server driver: %v", err)
	}
	if !done {
		return r
	}

	rec := recs[2]
	r.setupNS, r.wallNS = t1-r.startNS, t2-t1
	r.virtNS = int64(v1 - v0)
	r.mem = memCounters{mallocs: m1.mallocs - m0.mallocs, bytes: m1.bytes - m0.bytes}
	r.ops, r.failed, r.lat, r.vlat = rec.ops, rec.failed, rec.lat, rec.vlat
	r.spans = append(rec.spans, recs[1].spans...)
	sst.Add(cst)
	r.frames = sst.FramesSent
	busCounters(r.counters, sst)
	r.counters["netx.frames_dropped"] = float64(sst.FramesLost)
	if r.ops != timed {
		r.problem("timed %d round trips, want %d", r.ops, timed)
	}
	return r
}
