// Package a seeds obszerocost violations for the analyzer's golden test.
package a

// Event is a test observer event: construction must be nil-guarded.
//
//lint:event
type Event struct {
	Kind int
	Seq  uint8
}

type node struct {
	obs   func(Event)
	taps  []func(Event)
	hooks hooks
}

// hooks is the media's shape (internal/bus, internal/netx): one emit hook
// per wire event kind, nil when nobody subscribed to the kind.
type hooks struct {
	Transmit func(Event)
	Delivery func(Event)
}

func (n *node) bad() {
	n.obs(Event{Kind: 1}) // want `Event is an observer event .* constructed without a nil-consumer guard`
}

func (n *node) badStored() {
	ev := Event{Kind: 2} // want `Event is an observer event .* constructed without a nil-consumer guard`
	if n.obs != nil {
		n.obs(ev)
	}
}

func (n *node) goodIfGuard() {
	if n.obs != nil {
		n.obs(Event{Kind: 3})
	}
}

func (n *node) goodCompoundGuard(enabled bool) {
	if enabled && n.obs != nil {
		n.obs(Event{Kind: 4})
	}
}

// goodEmit is the guard-clause emitter shape used by internal/deltat.
func (n *node) goodEmit(kind int) {
	if n.obs == nil {
		return
	}
	n.obs(Event{Kind: kind})
}

// goodHook is the media's emit shape: the hook field is nil-checked.
func (n *node) goodHook() {
	if n.hooks.Delivery != nil {
		n.hooks.Delivery(Event{Kind: 5})
	}
}

func (n *node) badHook() {
	n.hooks.Transmit(Event{Kind: 5}) // want `Event is an observer event .* constructed without a nil-consumer guard`
}

// badTapLoop: a range over a consumer list is no guard.
func (n *node) badTapLoop() {
	for _, tap := range n.taps {
		tap(Event{Kind: 5}) // want `Event is an observer event .* constructed without a nil-consumer guard`
	}
}

func (n *node) allowed() {
	n.obs(Event{Kind: 6}) //lint:allow obszerocost (testing the annotation syntax)
}

// plain carries no event marker; construction anywhere is fine.
type plain struct {
	Kind int
}

func unguardedPlain() plain {
	return plain{Kind: 7}
}
