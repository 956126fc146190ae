// Package wire is the seam between the Delta-t transport and the medium
// that carries its frames. The simulator's broadcast bus (internal/bus)
// and the real-socket backend (internal/netx) both implement it, so the
// same transport — and everything above it — runs unchanged over either.
//
// The seam sits exactly where the thesis puts the communications adaptor's
// wire side: an endpoint attaches at its machine id and receives raw
// encoded transport frames; sending is fire-and-forget (the medium may
// drop, the transport's Delta-t machinery recovers). The seam carries
// frames and nothing else: what the transport does with them (its
// retransmissions, acknowledgements and window moves) it counts in its own
// ledger (deltat.Ledger), so the medium counts only what it carries.
package wire

import "soda/internal/frame"

// Iface is one node's attachment to a frame-carrying medium: the handle a
// Delta-t endpoint sends through and flips up/down on crash and reboot.
// *bus.Iface implements it for the simulated bus; netx's link implements
// it for TCP.
type Iface interface {
	// Send transmits an encoded transport frame to dst (frame.BroadcastMID
	// reaches every attached machine). Delivery is unreliable by contract.
	Send(dst frame.MID, raw []byte)
	// Down detaches the receiver from the medium (crash: a dead kernel
	// hears nothing).
	Down()
	// Up re-attaches the receiver after Down.
	Up()
}

// Network is a frame-carrying medium a transport endpoint can attach to.
type Network interface {
	// Attach registers recv as mid's frame sink and returns the send-side
	// handle. recv is invoked from simulation context with the raw encoded
	// frame; the callee must not retain the slice.
	Attach(mid frame.MID, recv func(raw []byte)) (Iface, error)
}
