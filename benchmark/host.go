package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostCPUs is the processors the benchmark may use: workers, connections
// and the Ps of the parallel workloads never exceed it. It is read before
// anything lowers GOMAXPROCS.
var hostCPUs = runtime.GOMAXPROCS(0)

// memCounters is the part of runtime.MemStats the benchmark differences over
// a timed section.
type memCounters struct {
	mallocs, bytes uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 where the kernel does not expose it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
