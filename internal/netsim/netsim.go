// Package netsim is an in-memory network fabric standing in for the Linux
// network namespaces (`ip netns`) the paper uses to isolate parallel
// fuzzing instances. Each instance gets its own Namespace; endpoints bound
// in one namespace are unroutable from any other, which gives the same
// cross-contamination guarantee without kernel facilities.
//
// The fabric is synchronous and deterministic: sending a datagram (or
// stream segment) invokes the bound handler inline and returns its
// responses, so campaigns driven by a virtual clock replay identically
// for a given seed.
//
// Impairment knobs follow the same discipline. SetLoss drops datagrams
// with a seeded probability and never touches streams (TCP's stand-in
// stays reliable); SetLatency charges a seeded per-delivery delay to a
// virtual ledger instead of sleeping. Both draw from their own rng
// streams, so enabling one never perturbs the other's sequence.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Errors reported by the fabric.
var (
	ErrPortInUse  = errors.New("netsim: port already bound")
	ErrUnroutable = errors.New("netsim: no endpoint at destination")
	ErrIsolated   = errors.New("netsim: destination is in another namespace")
	ErrClosed     = errors.New("netsim: connection closed")
)

// An Addr locates an endpoint inside a namespace.
type Addr struct {
	Host string
	Port uint16
}

// String renders the address as host:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// A DatagramHandler consumes one inbound datagram and returns zero or more
// response payloads (delivered to the sender synchronously).
type DatagramHandler interface {
	OnDatagram(src Addr, payload []byte) [][]byte
}

// DatagramHandlerFunc adapts a function to the DatagramHandler interface.
type DatagramHandlerFunc func(src Addr, payload []byte) [][]byte

// OnDatagram calls f.
func (f DatagramHandlerFunc) OnDatagram(src Addr, payload []byte) [][]byte {
	return f(src, payload)
}

// A StreamHandler serves stream connections (the TCP stand-in used by the
// MQTT and AMQP subjects).
type StreamHandler interface {
	// OnConnect is invoked when a client dials the listener.
	OnConnect(c *Conn)
	// OnData consumes one segment and returns response segments.
	OnData(c *Conn, data []byte) [][]byte
	// OnClose is invoked when the connection closes.
	OnClose(c *Conn)
}

// Stats counts fabric activity inside one namespace.
type Stats struct {
	DatagramsSent      int
	DatagramsDropped   int
	DatagramsDelivered int
	SegmentsDelivered  int
	ConnsOpened        int

	// LatencyAccrued is the total simulated delivery delay, in virtual
	// seconds, charged by SetLatency across every delivered datagram and
	// stream segment. The fabric never sleeps; campaigns fold this into
	// their virtual clocks.
	LatencyAccrued float64
}

// A Fabric owns a set of isolated namespaces.
type Fabric struct {
	mu         sync.Mutex
	namespaces map[string]*Namespace
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{namespaces: make(map[string]*Namespace)}
}

// Namespace returns the namespace with the given name, creating it on
// first use.
func (f *Fabric) Namespace(name string) *Namespace {
	f.mu.Lock()
	defer f.mu.Unlock()
	ns, ok := f.namespaces[name]
	if !ok {
		ns = &Namespace{
			name:      name,
			fabric:    f,
			datagrams: make(map[uint16]DatagramHandler),
			listeners: make(map[uint16]StreamHandler),
		}
		f.namespaces[name] = ns
	}
	return ns
}

// Names returns the names of all namespaces created so far.
func (f *Fabric) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.namespaces))
	for n := range f.namespaces {
		out = append(out, n)
	}
	return out
}

// A Namespace is one isolated network environment. All methods are safe
// for use by the single fuzzing instance that owns the namespace; the
// namespace never routes traffic to or from any other namespace.
type Namespace struct {
	name   string
	fabric *Fabric

	mu        sync.Mutex
	datagrams map[uint16]DatagramHandler
	listeners map[uint16]StreamHandler
	nextConn  int
	loss      float64
	rng       *rand.Rand
	latBase   float64
	latJitter float64
	latRng    *rand.Rand
	stats     Stats
}

// Name returns the namespace name.
func (ns *Namespace) Name() string { return ns.name }

// SetLoss configures a deterministic datagram loss probability in [0,1],
// driven by the given seed. The contract:
//
//   - Loss applies to datagrams only. Stream segments are reliable, as
//     TCP would be: no loss probability ever drops a Conn.Send, so
//     stream subjects (MQTT, AMQP) see every byte in order.
//   - A drop is decided before routing, the way a lost packet never
//     reaches the destination host: a dropped datagram returns
//     (nil, nil) even when no endpoint is bound at dst, and the bound
//     handler (if any) is not invoked.
//   - Drops count in Stats.DatagramsDropped (and DatagramsSent, never
//     DatagramsDelivered).
//   - The drop sequence is a pure function of (p, seed) and the send
//     sequence; it shares no state with the SetLatency rng, so the two
//     knobs compose without perturbing each other.
//
// Calling SetLoss again resets the sequence from the new seed.
func (ns *Namespace) SetLoss(p float64, seed int64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.loss = p
	ns.rng = rand.New(rand.NewSource(seed))
}

// SetLatency configures a simulated one-way delivery delay, in virtual
// seconds: every delivered datagram and stream segment is charged base
// plus a uniform draw in [0, jitter) from a rng stream seeded by seed
// (independent of the SetLoss stream). The fabric stays synchronous —
// nothing sleeps; the accumulated delay is reported in
// Stats.LatencyAccrued for virtual-clock campaigns to spend. Dropped
// datagrams are charged nothing. Calling SetLatency again resets the
// jitter sequence from the new seed.
func (ns *Namespace) SetLatency(base, jitter float64, seed int64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.latBase = base
	ns.latJitter = jitter
	ns.latRng = rand.New(rand.NewSource(seed))
}

// chargeLatencyLocked accrues one delivery's simulated delay. Callers
// hold ns.mu.
func (ns *Namespace) chargeLatencyLocked() {
	if ns.latBase == 0 && ns.latJitter == 0 {
		return
	}
	d := ns.latBase
	if ns.latJitter > 0 && ns.latRng != nil {
		// Rounded before the addition, so no CPU fuses it (see
		// parallel.Options.charge).
		d += float64(ns.latRng.Float64() * ns.latJitter)
	}
	ns.stats.LatencyAccrued += d
}

// Stats returns a snapshot of the namespace's traffic counters.
func (ns *Namespace) Stats() Stats {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.stats
}

// BindDatagram binds a datagram handler to port.
func (ns *Namespace) BindDatagram(port uint16, h DatagramHandler) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.datagrams[port]; ok {
		return ErrPortInUse
	}
	ns.datagrams[port] = h
	return nil
}

// UnbindDatagram releases a datagram port.
func (ns *Namespace) UnbindDatagram(port uint16) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	delete(ns.datagrams, port)
}

// SendDatagram delivers payload to the endpoint bound at dst within this
// namespace and returns the handler's responses. Configured loss may drop
// the datagram (nil responses, nil error), mirroring UDP semantics.
func (ns *Namespace) SendDatagram(src Addr, dst Addr, payload []byte) ([][]byte, error) {
	ns.mu.Lock()
	ns.stats.DatagramsSent++
	if ns.loss > 0 && ns.rng != nil && ns.rng.Float64() < ns.loss {
		ns.stats.DatagramsDropped++
		ns.mu.Unlock()
		return nil, nil
	}
	h, ok := ns.datagrams[dst.Port]
	if !ok {
		ns.mu.Unlock()
		return nil, ErrUnroutable
	}
	ns.stats.DatagramsDelivered++
	ns.chargeLatencyLocked()
	ns.mu.Unlock()
	return h.OnDatagram(src, payload), nil
}

// SendAcross attempts delivery into another namespace and always fails
// with ErrIsolated. It exists so isolation is an enforced, testable
// property rather than an accident of the API.
func (ns *Namespace) SendAcross(otherNamespace string, dst Addr, payload []byte) error {
	if otherNamespace == ns.name {
		_, err := ns.SendDatagram(Addr{Host: "local"}, dst, payload)
		return err
	}
	return ErrIsolated
}

// Listen binds a stream handler to port.
func (ns *Namespace) Listen(port uint16, h StreamHandler) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.listeners[port]; ok {
		return ErrPortInUse
	}
	ns.listeners[port] = h
	return nil
}

// CloseListener releases a stream port.
func (ns *Namespace) CloseListener(port uint16) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	delete(ns.listeners, port)
}

// Dial opens a stream connection to the listener at port.
func (ns *Namespace) Dial(port uint16) (*Conn, error) {
	ns.mu.Lock()
	h, ok := ns.listeners[port]
	if !ok {
		ns.mu.Unlock()
		return nil, ErrUnroutable
	}
	ns.nextConn++
	id := ns.nextConn
	ns.stats.ConnsOpened++
	ns.mu.Unlock()

	c := &Conn{
		ns:      ns,
		handler: h,
		id:      id,
		local:   Addr{Host: "client", Port: uint16(40000 + id%20000)},
		remote:  Addr{Host: ns.name, Port: port},
	}
	h.OnConnect(c)
	return c, nil
}

// A Conn is a synchronous stream connection: each Send delivers one
// segment to the server handler and returns the server's response
// segments.
type Conn struct {
	ns      *Namespace
	handler StreamHandler
	id      int
	local   Addr
	remote  Addr
	closed  bool
	state   any
}

// ID returns the fabric-unique connection id.
func (c *Conn) ID() int { return c.id }

// LocalAddr returns the client-side address.
func (c *Conn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the server-side address.
func (c *Conn) RemoteAddr() Addr { return c.remote }

// SetState attaches server-side per-connection state.
func (c *Conn) SetState(s any) { c.state = s }

// State returns the state attached with SetState.
func (c *Conn) State() any { return c.state }

// Send delivers one segment and returns the server's responses.
func (c *Conn) Send(data []byte) ([][]byte, error) {
	if c.closed {
		return nil, ErrClosed
	}
	c.ns.mu.Lock()
	c.ns.stats.SegmentsDelivered++
	c.ns.chargeLatencyLocked()
	c.ns.mu.Unlock()
	return c.handler.OnData(c, data), nil
}

// Close tears the connection down, notifying the server. Closing twice
// is a no-op.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.handler.OnClose(c)
}

// Closed reports whether the connection has been closed.
func (c *Conn) Closed() bool { return c.closed }
