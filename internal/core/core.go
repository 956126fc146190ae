// Package core implements the SODA kernel (chapter 3 of the thesis) and the
// uniprogrammed client runtime it serves.
//
// Each Node pairs a kernel processor with (at most) one client process. The
// kernel supplies the ten SODA primitives — REQUEST, ACCEPT, CANCEL,
// ADVERTISE, UNADVERTISE, GETUNIQUEID, OPEN, CLOSE, ENDHANDLER, DIE — plus
// the kernel-interpreted reserved patterns (BOOT, LOAD, KILL, SYSTEM) and
// broadcast DISCOVER. Reliable transport is provided by internal/deltat over
// internal/bus, all under the internal/sim virtual clock.
package core

import (
	"time"

	"soda/internal/deltat"
	"soda/internal/frame"
)

// Status is the disposition of a completed REQUEST, as seen by the
// requester's handler (§3.7.6).
type Status int

const (
	// StatusSuccess: the request was ACCEPTed and data exchanged.
	StatusSuccess Status = iota + 1
	// StatusCancelled: the request was withdrawn by CANCEL before
	// completion (reported to servers whose ACCEPT lost the race).
	StatusCancelled
	// StatusCrashed: the peer crashed (or executed DIE) before the
	// exchange completed (§3.6.1).
	StatusCrashed
	// StatusUnadvertised: the pattern in the server signature is not
	// advertised at the destination (§3.4.1).
	StatusUnadvertised
	// StatusRejected is the SODAL-level convention: the server ACCEPTed
	// with a negative argument and no data (the REJECT statement,
	// §4.1.2). The kernel reports StatusSuccess; blocking wrappers remap.
	StatusRejected
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "SUCCESS"
	case StatusCancelled:
		return "CANCELLED"
	case StatusCrashed:
		return "CRASHED"
	case StatusUnadvertised:
		return "UNADVERTISED"
	case StatusRejected:
		return "REJECTED"
	default:
		return "STATUS(?)"
	}
}

// EventKind discriminates handler invocations (§3.7.6).
type EventKind int

const (
	// EventRequestArrival: a REQUEST addressed to an advertised pattern
	// arrived; the tag fields describe it.
	EventRequestArrival EventKind = iota + 1
	// EventRequestCompletion: a previously issued REQUEST completed
	// (successfully or not).
	EventRequestCompletion
)

func (k EventKind) String() string {
	switch k {
	case EventRequestArrival:
		return "REQUEST_ARRIVAL"
	case EventRequestCompletion:
		return "REQUEST_COMPLETION"
	default:
		return "EVENT(?)"
	}
}

// Event is the information supplied to the client handler — the "tag" of
// §6.11. On arrivals, Asker names the remote requester and Pattern/Arg/
// PutSize/GetSize describe the request. On completions, Asker carries this
// client's own MID and the TID of the completed request, Status/Arg report
// the outcome, Data holds any received bytes, and PutN/GetN report the
// amount transferred in each direction.
type Event struct {
	Kind    EventKind
	Asker   frame.RequesterSig
	Pattern frame.Pattern
	Arg     int32
	Status  Status
	PutSize int
	GetSize int
	Data    []byte
	PutN    int
	GetN    int
}

// Costs models client-processor overheads, split into the buckets of the
// thesis's breakdown table (§5.5).
type Costs struct {
	// CtxSwitch is charged for every handler invocation (request arrival
	// and request completion interrupts).
	CtxSwitch time.Duration
	// ClientOverhead is charged per message-passing primitive invocation
	// (descriptor pool management, trap overhead; §5.5).
	ClientOverhead time.Duration
}

// CostTotals accumulates client-side cost buckets for the breakdown table.
type CostTotals struct {
	CtxSwitch      time.Duration
	ClientOverhead time.Duration
}

// Config parameterizes a node.
type Config struct {
	// Pipelined selects the input-buffer variant of the kernel: an
	// incoming REQUEST that finds the handler BUSY is parked briefly in
	// the input buffer instead of being BUSY-NACKed (§5.2.3).
	Pipelined bool
	// MaxRequests is MAXREQUESTS, the cap on uncompleted requests per
	// requester (§3.3.2). Defaults to 3.
	MaxRequests int
	// AcceptWindow is how long the kernel withholds a REQUEST's
	// acknowledgement hoping to piggyback the ACCEPT on it (§5.2.3).
	// Defaults to the transport's A.
	AcceptWindow time.Duration
	// PipelineHold is how long a pipelined kernel parks a REQUEST for a
	// BUSY handler before giving up with a BUSY NACK.
	PipelineHold time.Duration
	// ProbeInterval is the period of the request-monitoring probe
	// (§3.6.2); ProbeFailLimit successive failures report a crash.
	ProbeInterval  time.Duration
	ProbeFailLimit int
	// DiscoverWindow is how long a broadcast DISCOVER collects replies
	// (§3.4.4); DiscoverStagger spaces replies by MID to avoid
	// collisions (§5.3).
	DiscoverWindow  time.Duration
	DiscoverStagger time.Duration
	// AcceptDataTimeout bounds how long an ACCEPT waits for re-sent put
	// data before reporting the requester crashed.
	AcceptDataTimeout time.Duration
	// KernelRMRSize, when positive, enables the §6.17.2 kernel-level
	// remote-memory-reference service with a client-shared region of
	// that many bytes. The client's OPEN/CLOSE state gates the kernel
	// handler, providing the section's synchronization.
	KernelRMRSize int
	// Observer, when non-nil, receives the node's kernel events (see
	// ObsEvent). The network's event stream installs it at AddNode, nil
	// when nobody subscribed; it must never influence kernel behavior.
	Observer func(ObsEvent)
	// Costs are the client-processor overheads.
	Costs Costs
	// Transport configures the Delta-t endpoint.
	Transport deltat.Config
}

// DefaultConfig is calibrated against the thesis's measurements (§5.5).
func DefaultConfig() Config {
	tr := deltat.DefaultConfig()
	return Config{
		MaxRequests:       3,
		AcceptWindow:      tr.A,
		PipelineHold:      8 * time.Millisecond,
		ProbeInterval:     250 * time.Millisecond,
		ProbeFailLimit:    2,
		DiscoverWindow:    40 * time.Millisecond,
		DiscoverStagger:   time.Millisecond,
		AcceptDataTimeout: tr.DeadAfter(),
		Costs: Costs{
			CtxSwitch:      400 * time.Microsecond,
			ClientOverhead: 1100 * time.Microsecond,
		},
		Transport: tr,
	}
}

// Reserved patterns interpreted by the kernel (§3.7.7.1). BOOT and KILL are
// bound at SODA creation time; each LOAD pattern is minted at boot time.
var (
	// DefaultBootPattern marks a node available to receive a client.
	DefaultBootPattern = frame.ReservedPattern(0x0B0075)
	// DefaultKillPattern terminates the client regardless of handler
	// state; distributed only to privileged clients (§3.5.3).
	DefaultKillPattern = frame.ReservedPattern(0x0D1E5)
	// SystemPattern accepts RESERVED-pattern administration requests
	// from machine 0 only (§3.5.4).
	SystemPattern = frame.ReservedPattern(0x5157E)
	// RMRPattern is the reserved entry point of the optional kernel-level
	// remote-memory-reference service (§6.17.2): PEEK is a GET and POKE a
	// PUT with the address in the request argument, serviced by the
	// kernel without client intervention. Enabled per node with
	// Config.KernelRMRSize.
	RMRPattern = frame.ReservedPattern(0x9E40)
)

// Actions accepted on SystemPattern, carried in the request argument
// (§3.5.4).
const (
	// SysAddBootPattern adds the pattern in the request data as a boot
	// pattern.
	SysAddBootPattern int32 = iota + 1
	// SysDelBootPattern removes a boot pattern.
	SysDelBootPattern
	// SysReplaceKillPattern substitutes the kill pattern.
	SysReplaceKillPattern
)
