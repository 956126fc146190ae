package soda

import (
	"soda/internal/bus"
	"soda/internal/core"
	"soda/internal/deltat"
	"soda/internal/sim"
)

// The four kinds of a network's event stream.
type (
	// KernelEvent is a node kernel's protocol or lifecycle transition.
	KernelEvent = core.ObsEvent
	// TransportEvent is a Delta-t endpoint's protocol event.
	TransportEvent = deltat.Event
	// TransmitEvent is one frame handed to the medium.
	TransmitEvent = bus.TapEvent
	// DeliveryEvent is one frame handed to one receiver.
	DeliveryEvent = bus.DeliveryEvent
)

// Subscriber is one consumer of a network's event stream: a callback per
// kind it takes, nil for the kinds it ignores.
type Subscriber struct {
	Kernel    func(KernelEvent)
	Transport func(TransportEvent)
	Transmit  func(TransmitEvent)
	Delivery  func(DeliveryEvent)
}

// stream holds each kind's subscribers in Subscribe order.
type stream struct {
	kernel    []func(KernelEvent)
	transport []func(TransportEvent)
	transmit  []func(TransmitEvent)
	delivery  []func(DeliveryEvent)
}

// Subscribe attaches sub to the network's one event stream (DESIGN.md §7).
// Every layer emits into it at the moment the event happens: the kernels,
// the Delta-t endpoints, and the medium — the bus segments or the socket
// transport — for each transmit and each delivery, the delivery before the
// receiver runs. Subscribers of one kind are called synchronously in
// Subscribe order; a parallel network replays them at its window barriers
// in the sequential order, so its stream is byte-identical. A kind nobody
// subscribed to is never built.
//
// Subscribe must precede the first AddNode, because nodes copy their
// hooks when they are added; it panics afterwards.
func (nw *Network) Subscribe(sub Subscriber) {
	if len(nw.nodes) > 0 {
		panic("soda: Subscribe after AddNode (nodes copy their event hooks when added)")
	}
	s := &nw.stream
	if sub.Kernel != nil {
		s.kernel = append(s.kernel, sub.Kernel)
	}
	if sub.Transport != nil {
		s.transport = append(s.transport, sub.Transport)
	}
	if sub.Transmit != nil {
		s.transmit = append(s.transmit, sub.Transmit)
	}
	if sub.Delivery != nil {
		s.delivery = append(s.delivery, sub.Delivery)
	}
	nw.installWireHooks()
}

// installWireHooks gives the medium its transmit and delivery hooks: each
// bus segment's run on the shard owning it, the socket transport's on its
// driver.
func (nw *Network) installWireHooks() {
	transmit, delivery := fanOut(nw.stream.transmit), fanOut(nw.stream.delivery)
	if nw.nx != nil {
		nw.nx.SetHooks(bus.Hooks{Transmit: transmit, Delivery: delivery})
		return
	}
	for s, b := range nw.buses {
		k := nw.shard(s)
		b.SetHooks(bus.Hooks{Transmit: onShard(k, transmit), Delivery: onShard(k, delivery), Seg: s})
	}
}

// nodeHooks returns the kernel and transport hooks a node copies at
// AddNode, for a node scheduled on shard k (nil on a sequential network).
func (nw *Network) nodeHooks(k *sim.Kernel) (func(KernelEvent), func(TransportEvent)) {
	kernel := onShard(k, fanOut(nw.stream.kernel))
	transport := onShard(k, fanOut(nw.stream.transport))
	if k == nil {
		return kernel, transport
	}
	// The internetwork directory is the one consumer applied at once, under
	// the order gate: a DISCOVER proxied later in the same window must see
	// it. It subscribes normally on a sequential network (NewNetwork).
	inet, rest := nw.inet, kernel
	return func(ev KernelEvent) {
		switch ev.Kind {
		case core.ObsAdvertise, core.ObsUnadvertise, core.ObsCrash, core.ObsDie:
			k.Gated(func() { inet.Observe(ev) })
		}
		if rest != nil {
			rest(ev)
		}
	}, transport
}

// shard returns the kernel owning bus segment s on a parallel network, or
// nil on a sequential one.
func (nw *Network) shard(s int) *sim.Kernel {
	if nw.coord == nil {
		return nil
	}
	return nw.coord.Shard(s)
}

// fanOut composes one kind's subscribers into its layer hook: nil for
// none, the subscriber itself for one, a loop in Subscribe order for more.
func fanOut[E any](subs []func(E)) func(E) {
	switch len(subs) {
	case 0:
		return nil
	case 1:
		return subs[0]
	}
	return func(e E) {
		for _, f := range subs {
			f(e)
		}
	}
}

// onShard is the stream's one parallel wrapper: it defers a hook's calls
// to shard k's window barrier, where they replay in canonical commit order.
// A nil shard or hook is returned as is.
func onShard[E any](k *sim.Kernel, hook func(E)) func(E) {
	if k == nil || hook == nil {
		return hook
	}
	return func(e E) { k.Buffer(func() { hook(e) }) }
}
