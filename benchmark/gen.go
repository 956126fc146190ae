package main

import (
	"math/rand"
	"time"

	"soda"
)

// Layout of the segments_* internetwork: segCount bus segments of segNodes
// machines each; the first segServers machines of a segment run the echo
// service and the rest are clients.
const (
	segCount   = 8
	segNodes   = 32
	segServers = 4
	lastMID    = segCount * segNodes
)

func segmentOf(mid soda.MID) int { return (int(mid) - 1) / segNodes }
func isServer(mid soda.MID) bool { return (int(mid)-1)%segNodes < segServers }

// step is one entry of a client's script: whom to call, and how long to
// think afterwards.
type step struct {
	target soda.MID
	think  time.Duration
}

// script is everything a segments_* client does, drawn before the run so
// that no program ever touches a random source.
type script struct {
	start time.Duration // delay before the first DISCOVER
	steps []step        // followed in order, cyclically
}

// inputs is what one --seed turns into. Programs receive these values and
// nothing else of the generator.
type inputs struct {
	netSeed   int64    // soda.WithSeed of every network the run builds
	payload   []byte   // random bytes; put buffers are windows onto it
	putSizes  []int    // small-exchange put sizes, 16..48 B (mean 32), cyclic
	replySize int      // the echo service's reply, 48..80 B (mean 64)
	scripts   []script // indexed by MID; empty for servers
	// sweepOrder is the order in which chaos_sweep takes the scenario seeds
	// of its pool: the first ones are the timed section, the last ones the
	// warm-up.
	sweepOrder []int
}

const (
	bulkPutSize   = 2000 // bytes per bulk_lossy PUT (1000 PDP-11 words)
	smallGetSize  = 80   // get-buffer bytes of every small exchange
	scriptSteps   = 256
	crossShare    = 10 // percent of segments_* calls that leave the segment
	startSpread   = 2 * time.Second
	thinkMin      = 200 * time.Millisecond
	thinkSpread   = 200 * time.Millisecond
	payloadWindow = 4096
)

// generate derives every workload's inputs from seed. All workloads share
// one generator so that segments_seq and segments_par get byte-identical
// scripts by construction.
func generate(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		netSeed:  1 + rng.Int63n(1<<40),
		payload:  make([]byte, payloadWindow+bulkPutSize),
		putSizes: make([]int, 1024),
		scripts:  make([]script, lastMID+1),
	}
	rng.Read(in.payload)
	in.replySize = 48 + rng.Intn(33)
	for i := range in.putSizes {
		in.putSizes[i] = 16 + rng.Intn(33)
	}
	in.sweepOrder = rng.Perm(sweepPool)
	for mid := soda.MID(1); mid <= lastMID; mid++ {
		if isServer(mid) {
			continue
		}
		home := segmentOf(mid)
		sc := script{
			start: time.Duration(rng.Int63n(int64(startSpread))),
			steps: make([]step, scriptSteps),
		}
		for i := range sc.steps {
			seg := home
			if rng.Intn(100) < crossShare {
				seg = (home + 1 + rng.Intn(segCount-1)) % segCount
			}
			sc.steps[i] = step{
				target: soda.MID(seg*segNodes + 1 + rng.Intn(segServers)),
				think:  thinkMin + time.Duration(rng.Int63n(int64(thinkSpread))),
			}
		}
		in.scripts[mid] = sc
	}
	return in
}

// smallPut is the i-th small-exchange put buffer.
func (in *inputs) smallPut(i int) []byte {
	off := (i * 61) % payloadWindow
	return in.payload[off : off+in.putSizes[i%len(in.putSizes)]]
}

// bulkPut is the i-th bulk PUT buffer.
func (in *inputs) bulkPut(i int) []byte {
	off := (i * 193) % payloadWindow
	return in.payload[off : off+bulkPutSize]
}

// reply is the echo service's fixed answer.
func (in *inputs) reply() []byte { return in.payload[:in.replySize] }
