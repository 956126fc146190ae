package main

import (
	"encoding/json"
	"os"
)

// span is one traced interval, recorded by the benchmark around a call into
// the program under test. Spans live in memory until the run ends. Req ties
// together the spans one REQUEST caused (the client's "op" and the server's
// "core.accept"); Parent is the index of the enclosing span in the written
// list, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}

// spanFile is what -out writes per traced workload.
type spanFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// roundSpans lays out one traced round as a tree: the round, its set-up and
// timed section, under the timed section the operations the programs
// recorded, and under an operation the server-side span of the same request.
func roundSpans(r round) []span {
	const timed = 2
	timedStart := r.startNS + r.setupNS
	out := make([]span, 0, len(r.spans)+3)
	out = append(out,
		span{Name: "round", Start: r.startNS, End: timedStart + r.wallNS, Parent: -1},
		span{Name: "setup", Start: r.startNS, End: timedStart, Parent: 0},
		span{Name: "timed", Start: timedStart, End: timedStart + r.wallNS, Parent: 0},
	)
	ops := map[uint64]int{}
	for _, s := range r.spans {
		if s.Name == "op" {
			ops[s.Req] = len(out)
			s.Parent = timed
			out = append(out, s)
		}
	}
	for _, s := range r.spans {
		if s.Name != "op" {
			s.Parent = timed
			if op, ok := ops[s.Req]; ok {
				s.Parent = op
			}
			out = append(out, s)
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// meanSpanNS is the mean duration of the spans called name.
func meanSpanNS(spans []span, name string) float64 {
	var sum, n int64
	for _, s := range spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
