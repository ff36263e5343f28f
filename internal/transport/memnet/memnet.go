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
		l.clk.Wakeup(l)
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
	if v := l.clk.V(); v != nil {
		// Virtual time: poll the backlog as the one running simulation
		// goroutine, parking on the listener until a Dial (or Close)
		// wakes us.
		for {
			select {
			case c, ok := <-l.backlog:
				if !ok {
					return nil, transport.ErrClosed
				}
				return c, nil
			default:
			}
			if v.WaitOn(l) == sim.WakeExited {
				break
			}
		}
	}
	c, ok := <-l.backlog
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
	close(l.backlog)
	l.clk.Wakeup(l)
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
	cond   *sync.Cond
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
	p.cond = sync.NewCond(&p.mu)
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
	p.cond.Signal()
	p.mu.Unlock()
	p.clk.Wakeup(p)
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
	p.cond.Signal()
	p.mu.Unlock()
	p.clk.Wakeup(p)
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

func (p *pipe) recv(ctx context.Context) ([]byte, error) {
	if v := p.clk.V(); v != nil {
		if data, err, done := p.recvVirtual(ctx, v); done {
			return data, err
		}
		// The virtual run ended mid-wait; finish on the real path.
	}
	if ctx.Done() != nil {
		// Wake the cond wait below when the context fires; cond.Wait
		// cannot select on a channel, so the watcher broadcasts instead.
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer stop()
	}
	p.mu.Lock()
	for p.pending() == 0 && !p.closed && ctx.Err() == nil {
		p.cond.Wait()
	}
	if p.pending() == 0 {
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil, transport.ErrClosed
		}
		return nil, ctx.Err()
	}
	m := p.queue[p.head]
	p.queue[p.head] = timedMsg{}
	p.head++
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
	p.mu.Unlock()
	if err := sim.SleepUntil(ctx, m.deliverAt); err != nil {
		// Cancellation mid-delivery: requeue at the front so the stream
		// stays gapless and ordered for the next Recv (Conn permits only
		// one concurrent receiver, so no other reader raced us).
		p.mu.Lock()
		if p.head > 0 {
			p.head--
			p.queue[p.head] = m
		} else {
			p.queue = append(p.queue, timedMsg{})
			copy(p.queue[1:], p.queue)
			p.queue[0] = m
		}
		p.cond.Signal()
		p.mu.Unlock()
		return nil, err
	}
	return m.data, nil
}

// recvVirtual is recv under a virtual clock: park on the pipe until a
// sender (or close) wakes us, and ride the event heap to the head
// message's delivery time instead of sleeping. done=false means the
// virtual run ended and the caller must fall back to the real path.
func (p *pipe) recvVirtual(ctx context.Context, v *sim.VClock) (data []byte, err error, done bool) {
	for {
		p.mu.Lock()
		if err := ctx.Err(); err != nil {
			p.mu.Unlock()
			return nil, err, true
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
				p.mu.Unlock()
				return m.data, nil, true
			}
			deliverAt := m.deliverAt
			p.mu.Unlock()
			// No other simulation goroutine runs between the check above
			// and parking here, so check-then-park is atomic: no wakeup
			// can be lost.
			if v.WaitOnUntil(p, deliverAt) == sim.WakeExited {
				return nil, nil, false
			}
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return nil, transport.ErrClosed, true
		}
		p.mu.Unlock()
		if v.WaitOn(p) == sim.WakeExited {
			return nil, nil, false
		}
	}
}

func (p *pipe) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.clk.Wakeup(p)
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
