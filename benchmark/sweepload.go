package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"soda/sweep"
)

// chaos_sweep at scale 1 simulates sweepSeeds scenario seeds per round, each
// under the eight plan seeds 0..7 (0 is the fault-free control) on 3 and on
// 5 nodes: 16 runs a seed. The warm-up of a round simulates sweepWarmSeeds
// more.
//
// The scenario seeds come from a fixed pool, 1..sweepPool, each with a
// horizon of its own around sweepHorizon; -seed only decides which of them a
// run takes, and in which order. Every run of the pool passes the invariant
// checkers at the commit that added the benchmark, so a violation is the
// doing of a later change. (It cannot be left to -seed to pick fresh
// scenario seeds: about one simulation in 25 000 does break an invariant —
// fileserver, 3 nodes, seed 1030026, plan seed 1, horizon 2.012503803 s
// delivers a request twice.)
const (
	sweepSeeds     = 48
	sweepWarmSeeds = 4
	sweepPool      = 96
	sweepHorizon   = 2 * time.Second
)

var (
	sweepPlanSeeds = []int64{0, 1, 2, 3, 4, 5, 6, 7}
	sweepNodes     = []int{3, 5}
)

// poolHorizon is the virtual length of the runs of pool entry e: sweepHorizon
// give or take a tenth.
func poolHorizon(e int) time.Duration {
	return sweepHorizon*9/10 + time.Duration(e*37%201)*time.Millisecond*2
}

// sweepSpec is the sub-matrix of the i-th scenario seed of this run: every
// plan seed on each of nodes.
func (in *inputs) sweepSpec(i int, nodes []int, checks bool) sweep.Spec {
	e := in.sweepOrder[i]
	return sweep.Spec{
		Scenario:  "fileserver",
		Seeds:     []int64{int64(e + 1)},
		PlanSeeds: sweepPlanSeeds,
		Nodes:     nodes,
		Horizon:   poolHorizon(e),
		Checks:    checks,
	}
}

// sweepTimedSeeds is how many scenario seeds a round's timed section takes
// at scale: the pool less the warm-up at most.
func sweepTimedSeeds(scale float64) int {
	return min(scaledOps(sweepSeeds, scale, 1), sweepPool-sweepWarmSeeds)
}

// sweepRound runs the chaos matrix the way cmd/sodasweep does — sweep.Run
// with one worker per host CPU — one call per scenario seed and node count,
// because the engine reports no host time of its own: the wall time of an
// eight-run call, divided by eight, is the closest the benchmark gets to the
// latency of one run from outside.
func sweepRound(in *inputs, scale float64, traced bool) round {
	r := round{traced: traced, counters: map[string]float64{}, startNS: nowNS()}
	workers := hostCPUs
	// Set-up: warm-up sub-matrices on seeds the timed section never uses.
	for i := sweepPool - sweepWarmSeeds; i < sweepPool; i++ {
		if _, err := sweep.Run(in.sweepSpec(i, sweepNodes, true), workers); err != nil {
			r.problem("warm-up sweep: %v", err)
			return r
		}
	}
	hash := fnv.New64a()
	m0 := readMem()
	t1 := nowNS()
	for i := 0; i < sweepTimedSeeds(scale); i++ {
		for _, nodes := range sweepNodes {
			c0 := nowNS()
			rep, err := sweep.Run(in.sweepSpec(i, []int{nodes}, true), workers)
			c1 := nowNS()
			if err != nil {
				r.problem("sweep: %v", err)
				return r
			}
			if traced {
				r.spans = append(r.spans, span{Name: "sweep.Run", Start: c0, End: c1, Req: uint64(i)})
			}
			r.lat = append(r.lat, uint32(min((c1-c0)/int64(len(rep.Runs)), math.MaxUint32)))
			for _, run := range rep.Runs {
				r.ops++
				if run.Err != "" || len(run.Violations) > 0 {
					r.failed++
					r.problem("%v: err=%q violations=%v", run.Key, run.Err, run.Violations)
				}
				r.vlat = append(r.vlat, uint32(run.VirtualUS))
				r.virtNS += run.VirtualUS * 1000
				r.frames += run.FramesSent
				r.counters["bus.frames_sent"] += float64(run.FramesSent)
				r.counters["bus.frames_lost"] += float64(run.FramesLost)
				r.counters["deltat.retransmissions"] += float64(run.Retransmissions)
				fmt.Fprintf(hash, "%v %s %d\n", run.Key, run.TraceHash, run.Unresolved)
			}
		}
	}
	t2 := nowNS()
	m1 := readMem()
	r.setupNS, r.wallNS = t1-r.startNS, t2-t1
	r.mem = memCounters{mallocs: m1.mallocs - m0.mallocs, bytes: m1.bytes - m0.bytes}
	r.fingerprint = fmt.Sprintf("runs=%d frames=%d traces=%016x", r.ops, r.frames, hash.Sum64())
	return r
}
