package main

import "time"

// The benchmark measures the simulator from outside, in host time, so it is
// the one place in this directory that reads the wall clock. Everything else
// calls nowNS; sodavet's nowallclock analyzer therefore has exactly these
// two suppressions to audit.

var clockEpoch = time.Now() //lint:allow nowallclock (host-side measurement outside every simulation)

// nowNS reports monotonic host nanoseconds since the process started.
func nowNS() int64 {
	return int64(time.Since(clockEpoch)) //lint:allow nowallclock (host-side measurement outside every simulation)
}
