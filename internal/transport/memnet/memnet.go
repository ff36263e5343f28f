// Package memnet is an in-process implementation of transport.Network
// with simulated link latency and bandwidth. It stands in for the
// paper's InfiniBand fabric: each connection direction is a reliable
// ordered queue whose messages are serialized through a per-direction
// bandwidth device (sim.Device) and delivered half an RTT after they
// finish transmitting, so lock round trips and bulk flushes cost what
// Equation (1) of the paper says they should.
package memnet

import (
	"context"
	"sync"
	"time"

	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// Network is an in-process fabric. Nodes listen on arbitrary string
// addresses and dial each other by those names.
type Network struct {
	hw        sim.Hardware
	mu        sync.Mutex
	listeners map[string]*listener
}

// New returns a fabric with the given hardware model.
func New(hw sim.Hardware) *Network {
	return &Network{hw: hw, listeners: make(map[string]*listener)}
}

// Hardware returns the fabric's hardware model.
func (n *Network) Hardware() sim.Hardware { return n.hw }

// Listen registers addr. It fails if the address is taken.
func (n *Network) Listen(addr string) (transport.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, errAddrInUse
	}
	l := &listener{net: n, addr: addr, clk: n.hw.Clock, backlog: make(chan *conn, 128)}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening address.
func (n *Network) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, errNoListener
	}
	a, b := n.pair()
	// The listener's mutex serializes this send against Close closing the
	// backlog channel: a dial that fetched l before Close removed it from
	// the map would otherwise send on (or race the close of) a closed
	// channel.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		b.Close()
		a.Close()
		return nil, errNoListener
	}
	select {
	case l.backlog <- b:
		l.mu.Unlock()
		l.clk.Wakeup(l.backlog) // Accept's sim.Recv parks on the channel
		return a, nil
	default:
		l.mu.Unlock()
		b.Close()
		a.Close()
		return nil, errBacklogFull
	}
}

// pair creates the two endpoints of a connection.
func (n *Network) pair() (*conn, *conn) {
	ab := newPipe(n.hw)
	ba := newPipe(n.hw)
	a := &conn{send: ab, recv: ba}
	b := &conn{send: ba, recv: ab}
	return a, b
}

type memErr string

func (e memErr) Error() string { return string(e) }

const (
	errAddrInUse   = memErr("memnet: address in use")
	errNoListener  = memErr("memnet: no listener at address")
	errBacklogFull = memErr("memnet: accept backlog full")
)

type listener struct {
	net     *Network
	addr    string
	clk     sim.Clock
	backlog chan *conn
	mu      sync.Mutex
	closed  bool
}

func (l *listener) Accept() (transport.Conn, error) {
	c, ok, _ := sim.Recv(context.Background(), l.clk, l.backlog, nil, time.Time{})
	if !ok {
		return nil, transport.ErrClosed
	}
	return c, nil
}

func (l *listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	sim.Close(l.clk, l.backlog)
	return nil
}

func (l *listener) Addr() string { return l.addr }

// pipe is one direction of a connection: an unbounded ordered queue with
// simulated transmission (bandwidth) and propagation (latency) delays.
type pipe struct {
	hw     sim.Hardware
	clk    sim.Clock
	nic    sim.Device // serializes this direction's transmissions
	mu     sync.Mutex
	cond   *sim.Cond // broadcast, under mu, when a message or the close arrives
	queue  []timedMsg
	head   int // queue[head:] is live; popped slots are cleared for GC
	closed bool
}

type timedMsg struct {
	deliverAt time.Time
	data      []byte
}

// deliveredCopy is the one copy a message makes on this hop: out of the
// sender's frame (which the sender reuses the moment Send returns) into
// a pooled buffer of the message's size that Recv hands to its caller,
// who owns it from then on and recycles it (wire/pool.go).
func deliveredCopy(msg []byte) []byte {
	cp := wire.GetBuf(len(msg))
	copy(cp, msg)
	return cp
}

func newPipe(hw sim.Hardware) *pipe {
	p := &pipe{hw: hw, clk: hw.Clock}
	p.nic.SetClock(hw.Clock)
	p.cond = sim.NewCond(hw.Clock, &p.mu)
	return p
}

// deliveryTime returns when a message queued now arrives: half an RTT
// of propagation plus, in virtual mode, a small seeded jitter (up to
// RTT/16). The jitter is what makes a virtual run's seed meaningful —
// it perturbs message arrival interleavings, and through them grant
// orders, revocation timing, and every downstream duration — without
// changing what any message carries. Wall-clock runs get equivalent
// variance for free from the OS scheduler, so they draw nothing.
func (p *pipe) deliveryTime() time.Time {
	at := p.clk.Now().Add(p.hw.RTT / 2)
	if v := p.clk.V(); v != nil {
		if j := int64(p.hw.RTT / 16); j > 0 {
			at = at.Add(time.Duration(v.Int63n(j)))
		}
	}
	return at
}

func (p *pipe) send(ctx context.Context, msg []byte) error {
	// Block the sender for the serialization time (sharing the link with
	// earlier messages), then schedule delivery half an RTT later. This
	// lets small control messages pipeline behind bulk transfers exactly
	// like a real NIC queue pair. A fired context stops the sender from
	// queueing further (the link time is already committed).
	if err := p.nic.UseBytesCtx(ctx, int64(len(msg)), p.hw.NetBandwidth, 0); err != nil {
		return err
	}
	cp := deliveredCopy(msg)
	deliverAt := p.deliveryTime()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		wire.PutBuf(cp)
		return transport.ErrClosed
	}
	p.push(timedMsg{deliverAt: deliverAt, data: cp})
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// sendBatch transmits msgs as one unit: a single bandwidth charge for
// the total bytes, one lock acquisition, and one shared delivery time —
// the frames ride the link back to back, like a coalesced writev.
func (p *pipe) sendBatch(ctx context.Context, msgs [][]byte) error {
	var total int64
	for _, m := range msgs {
		total += int64(len(m))
	}
	if err := p.nic.UseBytesCtx(ctx, total, p.hw.NetBandwidth, 0); err != nil {
		return err
	}
	deliverAt := p.deliveryTime()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return transport.ErrClosed
	}
	for _, m := range msgs {
		p.push(timedMsg{deliverAt: deliverAt, data: deliveredCopy(m)})
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// push appends under p.mu, compacting the consumed prefix first so a
// steady request/response exchange reuses one backing array instead of
// reallocating on every send.
func (p *pipe) push(m timedMsg) {
	if p.head > 0 && len(p.queue) == cap(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		for i := n; i < len(p.queue); i++ {
			p.queue[i] = timedMsg{}
		}
		p.queue = p.queue[:n]
		p.head = 0
	}
	p.queue = append(p.queue, m)
}

// pending returns the number of undelivered messages (under p.mu).
func (p *pipe) pending() int { return len(p.queue) - p.head }

// recv waits until the head message is due and pops it. Conn permits
// one receiver at a time, so the head it waits for is still the head
// when it wakes.
func (p *pipe) recv(ctx context.Context) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.pending() > 0 {
			m := p.queue[p.head]
			if !m.deliverAt.After(p.clk.Now()) {
				p.queue[p.head] = timedMsg{}
				p.head++
				if p.head == len(p.queue) {
					p.queue = p.queue[:0]
					p.head = 0
				}
				return m.data, nil
			}
			p.cond.Wait(ctx, m.deliverAt)
			continue
		}
		if p.closed {
			return nil, transport.ErrClosed
		}
		p.cond.Wait(ctx, time.Time{})
	}
}

func (p *pipe) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

type conn struct {
	send *pipe
	recv *pipe
}

func (c *conn) Send(ctx context.Context, msg []byte) error { return c.send.send(ctx, msg) }

func (c *conn) SendBatch(ctx context.Context, msgs [][]byte) error {
	return c.send.sendBatch(ctx, msgs)
}

func (c *conn) Recv(ctx context.Context) ([]byte, error) { return c.recv.recv(ctx) }

func (c *conn) Close() error {
	c.send.close()
	c.recv.close()
	return nil
}
