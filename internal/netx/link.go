package netx

import "soda/internal/frame"

// link is one local node's attachment to the socket medium: netx's
// counterpart of bus.Iface. All methods run on the driver goroutine (they
// are called from transport code inside kernel events), so up needs no
// lock.
type link struct {
	n    *Network
	mid  frame.MID
	recv func(raw []byte)
	up   bool
}

// Send transmits one encoded transport frame (wire.Iface). A down link's
// sends vanish, matching the simulated bus's crashed-kernel semantics.
func (l *link) Send(dst frame.MID, raw []byte) {
	if !l.up {
		return
	}
	l.n.send(l, dst, raw)
}

// Down detaches the receiver (crash); Up re-attaches it (reboot).
func (l *link) Down() { l.up = false }
func (l *link) Up()   { l.up = true }
