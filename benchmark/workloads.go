package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"soda"
)

// round is one repetition of a workload: a fresh set-up followed by one
// timed section of a fixed amount of work. A run repeats rounds on the same
// inputs until its time is up, so wall-time metrics are medians over rounds
// while everything the simulation itself computes must repeat exactly.
type round struct {
	traced  bool
	startNS int64 // host clock when the round began
	setupNS int64 // from there to the start of the timed section
	wallNS  int64 // the timed section
	ops     int
	failed  int
	virtNS  int64 // virtual length of the timed section
	frames  uint64
	mem     memCounters // delta over the timed section
	// lat and vlat are the host nanoseconds and virtual microseconds of the
	// operations timed individually; measure keeps the first in its sample
	// store and of the second only virtTailUS, the tail percentile.
	lat, vlat  []uint32
	virtTailUS uint32
	// counters are the per-layer counts of the timed section (and, for the
	// DISCOVER cache, of set-up), by per-layer metric name.
	counters map[string]float64
	// fingerprint collects every simulated statistic of the round; it must
	// be identical in every round, and between segments_seq and
	// segments_par.
	fingerprint string
	spans       []span
	problems    []string
}

func (r *round) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// recorder is one program's private measurement state. Under
// WithParallelSim programs of different segments run on different host
// threads, so nothing here is shared between machines.
//
// Every operation is counted, checked and timed on the virtual clock, which
// costs no system call; one in every is also timed on the host clock. The
// samples are four bytes each and a round's stay under a megabyte: the
// harness must not grow the heap it measures, or the collector would run on
// the harness's schedule and the caches hold the harness's data.
type recorder struct {
	every  int
	count  int      // operations begun
	ops    int      // operations finished
	failed int      // of those, not delivered
	lat    []uint32 // host ns of one operation in every, saturating
	vlat   []uint32 // virtual µs of each operation
	traced bool
	spans  []span
}

// newRecorder sizes a recorder for capacity operations.
func newRecorder(every, capacity int, traced bool) *recorder {
	return &recorder{every: every, lat: make([]uint32, 0, capacity/every+1), vlat: make([]uint32, 0, capacity), traced: traced}
}

// reset opens the measurement window: what was recorded during warm-up is
// dropped.
func (r *recorder) reset() {
	r.lat, r.vlat, r.spans, r.ops, r.failed = r.lat[:0], r.vlat[:0], r.spans[:0], 0, 0
}

// timing is the start of one operation; t0 is zero unless it is timed on
// the host clock (nowNS never reads zero).
type timing struct {
	t0 int64
	v0 time.Duration
}

// begin starts one operation. An untraced round times one operation in
// every on the host clock; a traced round times them all, because which of
// them get a span depends on the transaction id the kernel is about to
// assign.
func (r *recorder) begin(c *soda.Client) timing {
	tm := timing{v0: c.Now()}
	if r.count++; r.traced || r.count%r.every == 0 {
		tm.t0 = nowNS()
	}
	return tm
}

// done records one finished operation. tid is the transaction id of its
// last attempt.
func (r *recorder) done(c *soda.Client, tm timing, ok bool, tid soda.TID) {
	r.ops++
	if !ok {
		r.failed++
	}
	r.vlat = append(r.vlat, uint32(min((c.Now()-tm.v0).Microseconds(), math.MaxUint32)))
	if tm.t0 == 0 {
		return
	}
	t1 := nowNS()
	if !r.traced {
		r.lat = append(r.lat, uint32(min(t1-tm.t0, math.MaxUint32)))
	} else if r.spanned(tid) {
		r.spans = append(r.spans, span{Name: "op", Start: tm.t0, End: t1, Req: reqID(c.MID(), tid)})
	}
}

// spanned reports whether a traced round keeps spans for the request with
// this transaction id: one request in every, and the same ones on the
// client's side and on the server's, so that the spans of one request can be
// put together.
func (r *recorder) spanned(tid soda.TID) bool { return r.traced && uint64(tid)%uint64(r.every) == 0 }

func reqID(mid soda.MID, tid soda.TID) uint64 { return uint64(mid)<<48 | uint64(tid)&(1<<48-1) }

var echoPattern = soda.WellKnownPattern(0o7441)

// echoServer accepts every request with a fixed reply (nil: a bare PUT
// accept). In a traced round the server's recorder keeps a span around the
// ACCEPT calls of the requests the round keeps spans for.
func echoServer(reply []byte, recs []*recorder) soda.Program {
	accept := func(c *soda.Client, ev soda.Event) {
		if reply == nil {
			c.AcceptCurrentPut(soda.OK, ev.PutSize)
		} else {
			c.AcceptCurrentExchange(soda.OK, reply, ev.PutSize)
		}
	}
	return soda.Program{
		Init: func(c *soda.Client, _ soda.MID) {
			if err := c.Advertise(echoPattern); err != nil {
				panic(err)
			}
		},
		Handler: func(c *soda.Client, ev soda.Event) {
			if ev.Kind != soda.EventRequestArrival {
				return
			}
			rec := recs[c.MID()]
			if rec == nil || !rec.spanned(ev.Asker.TID) {
				accept(c, ev)
				return
			}
			t0 := nowNS()
			accept(c, ev)
			rec.spans = append(rec.spans, span{Name: "core.accept", Start: t0, End: nowNS(), Req: reqID(ev.Asker.MID, ev.Asker.TID)})
		},
	}
}

// discoverRetry spaces DISCOVER retries; a lost broadcast on the lossy bus
// is the only reason one is ever needed.
const discoverRetry = 100 * time.Millisecond

func discover(c *soda.Client) []soda.MID {
	for {
		if found := c.DiscoverAll(echoPattern, segCount*segServers); len(found) > 0 {
			return found
		}
		c.Hold(discoverRetry)
	}
}

// An operation is a piece of data delivered: a request that completes with
// another status than success — on the lossy bus and over the socket the
// transport now and then reports a live peer dead — is issued again, as an
// application would. The operation's latency includes the lost attempts,
// and it fails only after maxAttempts of them.
const maxAttempts = 4

// exchangeClient is the closed-loop small-exchange client of rtt_small,
// segments_* and socket_rtt: DISCOVER once, then one blocking EXCHANGE at a
// time, forever. With a script it waits, calls the scripted servers and
// thinks between calls; without one it calls the first server found back to
// back. after, when set, runs after every operation (socket_rtt counts its
// phases with it).
func exchangeClient(in *inputs, recs []*recorder, after func(c *soda.Client, n int)) soda.Program {
	reply := in.reply()
	return soda.Program{Task: func(c *soda.Client) {
		rec := recs[c.MID()]
		sc := in.scripts[c.MID()]
		scripted := len(sc.steps) > 0
		if scripted {
			c.Hold(sc.start)
		}
		dst := soda.ServerSig{MID: discover(c)[0], Pattern: echoPattern}
		for i := 0; ; i++ {
			var think time.Duration
			if scripted {
				st := sc.steps[i%len(sc.steps)]
				dst.MID, think = st.target, st.think
			}
			put := in.smallPut(i)
			tm := rec.begin(c)
			var res soda.CallResult
			ok := false
			for attempt := 0; attempt < maxAttempts && !ok; attempt++ {
				res = c.BExchange(dst, soda.OK, put, smallGetSize)
				ok = res.Status == soda.StatusSuccess && res.PutN == len(put) && bytes.Equal(res.Data, reply)
			}
			rec.done(c, tm, ok, res.TID)
			if after != nil {
				after(c, i+1)
			}
			if think > 0 {
				c.Hold(think)
			}
		}
	}}
}

// bulkOutstanding is how many PUTs the streaming client keeps in flight
// (MAXREQUESTS of the default kernel).
const bulkOutstanding = 3

// bulkBlock is one bulkPutSize-byte block on its way to the server.
type bulkBlock struct {
	index    int
	tm       timing
	attempts int
}

// bulkClient streams bulkPutSize-byte PUTs with bulkOutstanding in flight.
func bulkClient(in *inputs, recs []*recorder) soda.Program {
	return soda.Program{Task: func(c *soda.Client) {
		rec := recs[c.MID()]
		dst := soda.ServerSig{MID: discover(c)[0], Pattern: echoPattern}
		var again []bulkBlock
		inflight, next := 0, 0
		for {
			for inflight < bulkOutstanding {
				var b bulkBlock
				if len(again) > 0 {
					b, again = again[0], again[1:]
				} else {
					b = bulkBlock{index: next, tm: rec.begin(c)}
					next++
				}
				b.attempts++
				put := in.bulkPut(b.index)
				tid, err := c.Put(dst, soda.OK, put)
				if err != nil {
					rec.done(c, b.tm, false, 0)
					continue
				}
				inflight++
				c.OnCompletion(tid, func(ev soda.Event) {
					inflight--
					ok := ev.Status == soda.StatusSuccess && ev.PutN == len(put)
					if !ok && b.attempts < maxAttempts {
						again = append(again, b)
						return
					}
					rec.done(c, b.tm, ok, tid)
				})
			}
			n := inflight
			c.WaitUntil(func() bool { return inflight < n })
		}
	}}
}

// simWorkload describes one simulated workload: how to build its network
// and how long, in virtual time at scale 1, its warm-up and timed section
// run. The timed section is a fixed stretch of virtual time, so the number
// of operations in it is fixed by the inputs and repeats exactly.
type simWorkload struct {
	warm, timed time.Duration
	minTimed    time.Duration // floor under -scale
	opFloor     time.Duration // shortest operation, sizes the recorders
	sampleEvery int           // one operation in this many is timed individually
	options     []soda.Option
	// populate registers the programs, adds the machines and boots them.
	populate func(nw *soda.Network, in *inputs, recs []*recorder)
	machines int
	server   func(mid soda.MID) bool
	// parallel marks segments_par: its rounds add WithParallelSim, and the
	// run ends with one sequential round to compare against.
	parallel bool
}

var simWorkloads = map[string]simWorkload{
	"rtt_small": {
		warm: 100 * time.Second, timed: 1000 * time.Second, minTimed: time.Second, opFloor: 8 * time.Millisecond, sampleEvery: 16,
		machines: 2, server: pairServer,
		populate: func(nw *soda.Network, in *inputs, recs []*recorder) {
			nw.Register("server", echoServer(in.reply(), recs))
			nw.Register("client", exchangeClient(in, recs, nil))
			bootPair(nw)
		},
	},
	"bulk_lossy": {
		warm: 60 * time.Second, timed: 1200 * time.Second, minTimed: 2 * time.Second, opFloor: 4 * time.Millisecond, sampleEvery: 16,
		options:  []soda.Option{soda.WithPipelined(true), soda.WithTransportWindow(8), soda.WithLoss(0.05)},
		machines: 2, server: pairServer,
		populate: func(nw *soda.Network, in *inputs, recs []*recorder) {
			nw.Register("server", echoServer(nil, recs))
			nw.Register("client", bulkClient(in, recs))
			bootPair(nw)
		},
	},
	"segments_seq": segments(false),
	"segments_par": segments(true),
}

// pairServer: on the two-machine networks, machine 1 serves machine 2.
func pairServer(mid soda.MID) bool { return mid == 1 }

func bootPair(nw *soda.Network) {
	nw.MustAddNode(1)
	nw.MustAddNode(2)
	nw.MustBoot(1, "server")
	nw.MustBoot(2, "client")
}

// segForwardDelay is the gateways' store-and-forward latency, and with it
// the lookahead WithParallelSim works with.
const segForwardDelay = 500 * time.Microsecond

func segments(parallel bool) simWorkload {
	topo := soda.StarTopology(segCount)
	topo.ForwardDelay = segForwardDelay
	topo.Locate = segmentOf
	return simWorkload{
		warm: 3 * time.Second, timed: 40 * time.Second, minTimed: 2 * time.Second, opFloor: thinkMin, sampleEvery: 8,
		parallel: parallel,
		machines: lastMID, server: isServer,
		options: []soda.Option{soda.WithTopology(topo)},
		populate: func(nw *soda.Network, in *inputs, recs []*recorder) {
			nw.Register("server", echoServer(in.reply(), recs))
			nw.Register("client", exchangeClient(in, recs, nil))
			for mid := soda.MID(1); mid <= lastMID; mid++ {
				nw.MustAddNode(mid)
				if isServer(mid) {
					nw.MustBoot(mid, "server")
				} else {
					nw.MustBoot(mid, "client")
				}
			}
		},
	}
}

// scaled applies the common -scale factor to a scale-1 amount of virtual
// time, never going below floor.
func scaled(d time.Duration, scale float64, floor time.Duration) time.Duration {
	return max(time.Duration(float64(d)*scale), floor)
}

// minWarm is the shortest warm-up that still covers every client's start
// delay, DISCOVER window and first operations.
const minWarm = startSpread + time.Second

// run runs one round of a simulated workload; parallel adds
// WithParallelSim.
func (w simWorkload) run(in *inputs, scale float64, traced, parallel bool) round {
	r := round{traced: traced, counters: map[string]float64{}}
	timed := scaled(w.timed, scale, w.minTimed)
	warm := scaled(w.warm, scale, minWarm)

	t0 := nowNS()
	opts := append([]soda.Option{soda.WithSeed(in.netSeed), soda.WithEventLimit(1 << 62)}, w.options...)
	if parallel {
		opts = append(opts, soda.WithParallelSim(hostCPUs))
	}
	nw := soda.NewNetwork(opts...)
	recs := make([]*recorder, w.machines+1)
	for mid := range recs {
		capacity := 0
		if mid > 0 && !w.server(soda.MID(mid)) {
			capacity = int(timed/w.opFloor) + 16
		}
		recs[mid] = newRecorder(w.sampleEvery, capacity, traced)
	}
	w.populate(nw, in, recs)
	if err := nw.Run(warm); err != nil {
		r.problem("warm-up: %v", err)
		return r
	}
	setupInet := nw.InternetStats()
	for _, rec := range recs {
		rec.reset()
	}
	nw.ResetStats()
	for mid := 1; mid <= w.machines; mid++ {
		nw.Node(soda.MID(mid)).ResetTotals()
	}
	v0 := nw.Now()
	m0 := readMem()
	t1 := nowNS()
	err := nw.Run(timed)
	t2 := nowNS()
	m1 := readMem()
	if err != nil {
		r.problem("timed section: %v", err)
		return r
	}

	r.startNS, r.setupNS, r.wallNS = t0, t1-t0, t2-t1
	r.virtNS = int64(nw.Now() - v0)
	r.mem = memCounters{mallocs: m1.mallocs - m0.mallocs, bytes: m1.bytes - m0.bytes}
	perClient := make([]int, 0, w.machines)
	for mid, rec := range recs {
		r.ops += rec.ops
		r.failed += rec.failed
		r.lat = append(r.lat, rec.lat...)
		r.vlat = append(r.vlat, rec.vlat...)
		r.spans = append(r.spans, rec.spans...)
		perClient = append(perClient, rec.ops)
		if mid > 0 && !w.server(soda.MID(mid)) && rec.ops == 0 {
			r.problem("client %d completed no operation in %v of virtual time", mid, timed)
		}
	}
	st, inet, par := nw.Stats(), nw.InternetStats(), nw.ParStats()
	r.frames = st.FramesSent
	busCounters(r.counters, st)
	internetCounters(r.counters, inet, setupInet)
	if parallel {
		parCounters(r.counters, par)
		if par.FallbackSequential || par.Windows == 0 {
			r.problem("WithParallelSim did not run in parallel: %+v", par)
		}
	}
	if w.machines == 2 {
		costCounters(r.counters, nw, st, r.ops)
	}
	r.fingerprint = fmt.Sprintf("end=%v ops=%d failed=%d perclient=%v bus=%+v internet=%+v", nw.Now(), r.ops, r.failed, perClient, st, inet)

	if err := endPrograms(nw, w.machines, w.server); err != nil {
		r.problem("teardown: %v", err)
	}
	return r
}

// endPrograms ends every client program of nw with DIE. A client process is
// a goroutine that holds on to its whole network, so a network that is
// merely dropped is never collected. The requesters die first and the
// servers once the last requests have drained.
func endPrograms(nw *soda.Network, machines int, server func(soda.MID) bool) error {
	for _, servers := range []bool{false, true} {
		nw.At(nw.Now(), func() {
			for mid := soda.MID(1); int(mid) <= machines; mid++ {
				if server(mid) == servers {
					nw.Node(mid).Die()
				}
			}
		})
		if err := nw.Run(time.Second); err != nil {
			return err
		}
	}
	return nil
}
