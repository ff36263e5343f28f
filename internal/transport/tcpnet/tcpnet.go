// Package tcpnet implements transport.Network over real TCP sockets with
// length-prefixed frames. It is what the standalone ccpfs-server and
// ccpfs-cli binaries use, demonstrating that the reproduction is a real
// networked system and not only a simulation harness.
//
// The send path is a group commit: concurrent senders enqueue frames and
// the first one becomes the writer leader, draining the whole queue with
// a single net.Buffers writev — so the 4-byte length prefix and payload
// always leave in one syscall, and a burst of small frames (lock
// requests, acks, cancel frames) coalesces into one segment instead of
// one syscall each. Leadership hands off to a waiting sender when the
// leader's own frame is done, bounding any one Send's time at the helm.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// MaxFrame bounds a single message; larger frames indicate corruption
// (or a hostile peer) and fail the connection.
const MaxFrame = 256 << 20

// Network dials and listens on TCP.
type Network struct{}

// New returns the TCP fabric.
func New() *Network { return &Network{} }

// Listen binds a TCP listener at addr (host:port; ":0" picks a port).
func (*Network) Listen(addr string) (transport.Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &listener{nl: nl}, nil
}

// Dial connects to a TCP address.
func (*Network) Dial(addr string) (transport.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newConn(nc), nil
}

type listener struct{ nl net.Listener }

func (l *listener) Accept() (transport.Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, transport.ErrClosed
		}
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newConn(nc), nil
}

func (l *listener) Close() error { return l.nl.Close() }

func (l *listener) Addr() string { return l.nl.Addr().String() }

// conn frames messages as a 4-byte big-endian length followed by the
// payload.
type conn struct {
	nc net.Conn
	br *bufio.Reader // frame scanner: fewer read syscalls, frames survive split reads

	// Group-commit send state: senders enqueue outFrames under qmu; the
	// first to find no leader drains the queue with one writev per batch.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []*outFrame
	spare   []*outFrame // ping-pong backing for queue, reused across batches
	writing bool        // a leader is draining the queue
	scratch net.Buffers // leader's reused iovec (hdr, body, hdr, body, ...)

	recvBuf [4]byte
}

// outFrame is one queued message: its length prefix, payload, and
// completion state. The outFrame record is pooled; the payload is the
// conn's from Send on, and goes back to its pool once it is written.
type outFrame struct {
	hdr  [4]byte
	body []byte
	done bool
	err  error // raw write error; mapped by the submitting sender
}

var framePool = sync.Pool{New: func() any { return new(outFrame) }}

func newConn(nc net.Conn) *conn {
	c := &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	c.qcond = sync.NewCond(&c.qmu)
	return c
}

func newFrame(msg []byte) *outFrame {
	fr := framePool.Get().(*outFrame)
	binary.BigEndian.PutUint32(fr.hdr[:], uint32(len(msg)))
	fr.body = msg
	fr.done = false
	fr.err = nil
	return fr
}

func putFrame(fr *outFrame) {
	fr.body = nil
	framePool.Put(fr)
}

func (c *conn) Send(ctx context.Context, msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(msg))
	}
	if err := ctx.Err(); err != nil {
		wire.PutBuf(msg)
		return err
	}
	fr := newFrame(msg)
	err := c.submit(ctx, fr)
	putFrame(fr)
	return err
}

// SendBatch transmits msgs as one unit: the frames are enqueued
// back to back, so the leader's writev puts them all in a single
// syscall (up to the kernel's iovec limit; Go chunks transparently).
func (c *conn) SendBatch(ctx context.Context, msgs [][]byte) error {
	for _, m := range msgs {
		if len(m) > MaxFrame {
			return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(m))
		}
	}
	if err := ctx.Err(); err != nil {
		for _, m := range msgs {
			wire.PutBuf(m)
		}
		return err
	}
	frs := make([]*outFrame, len(msgs))
	for i, m := range msgs {
		frs[i] = newFrame(m)
	}
	err := c.submit(ctx, frs...)
	for _, fr := range frs {
		putFrame(fr)
	}
	return err
}

// submit enqueues frs and blocks until every frame has been written (or
// failed). The first sender to find no active leader becomes one and
// drains the queue — its own frames and any concurrent sender's — with
// one writev per batch; the rest wait on the cond.
//
// A canceled Send mid-frame would corrupt the stream for every later
// message, so cancellation only poisons the whole connection: the
// watcher below forces a past write deadline, the in-flight writev
// aborts, and the resulting short frame makes the peer's next Recv fail
// too. That matches the contract — callers give up on the call, the
// endpoint tears down. The sender still waits for its frames' outcome
// (prompt, because the poisoned deadline fails writes immediately) and
// reports it; the leader that wrote a frame is what recycles it.
func (c *conn) submit(ctx context.Context, frs ...*outFrame) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			c.nc.SetWriteDeadline(time.Unix(1, 0)) // a past deadline aborts the write
		})
		defer func() {
			if !stop() {
				// The watcher ran: clear the poisoned deadline so that if
				// the write in fact completed first, later operations are
				// not spuriously aborted.
				c.nc.SetWriteDeadline(time.Time{})
			}
		}()
	}
	c.qmu.Lock()
	c.queue = append(c.queue, frs...)
	for {
		if allDone(frs) {
			break
		}
		if !c.writing {
			c.writing = true
			c.lead(frs)
			continue
		}
		c.qcond.Wait()
	}
	err := firstErr(frs)
	c.qmu.Unlock()
	return c.mapCtxErr(ctx, err)
}

// lead drains the queue as the writer leader. Called with c.qmu held and
// c.writing set; returns with c.qmu held. The leader steps down once its
// own frames are done (handing the queue to a waiting sender) or the
// queue is empty.
func (c *conn) lead(own []*outFrame) {
	for len(c.queue) > 0 && !allDone(own) {
		batch := c.queue
		c.queue = c.spare[:0]
		c.qmu.Unlock()

		bufs := c.scratch[:0]
		for _, fr := range batch {
			bufs = append(bufs, fr.hdr[:], fr.body)
		}
		wb := bufs
		written, err := wb.WriteTo(c.nc) // one writev for the whole batch
		for i := range bufs {
			bufs[i] = nil
		}
		c.scratch = bufs[:0]
		// The socket has a fully written frame's bytes, so the frame goes
		// back to its pool. One the writev was aborted in the middle of
		// (a poisoned deadline), or never reached, is left to the
		// collector.
		for _, fr := range batch {
			if written -= int64(len(fr.hdr) + len(fr.body)); written >= 0 {
				wire.PutBuf(fr.body)
			}
			fr.body = nil
		}

		c.qmu.Lock()
		for i, fr := range batch {
			fr.err = err
			fr.done = true
			batch[i] = nil
		}
		c.spare = batch[:0]
		c.qcond.Broadcast()
	}
	c.writing = false
	if len(c.queue) > 0 {
		// Our frames are done but others are queued: wake a waiter to
		// take over leadership.
		c.qcond.Broadcast()
	}
}

func allDone(frs []*outFrame) bool {
	for _, fr := range frs {
		if !fr.done {
			return false
		}
	}
	return true
}

func firstErr(frs []*outFrame) error {
	for _, fr := range frs {
		if fr.err != nil {
			return fr.err
		}
	}
	return nil
}

// errFrameTooLarge poisons the connection: an oversized length prefix
// means the stream is corrupt (or hostile), not merely slow.
var errFrameTooLarge = errors.New("tcpnet: frame exceeds limit")

// readFrame scans one length-prefixed frame from br, which may deliver
// the prefix and payload across any number of split reads. The returned
// slice is a pooled buffer (wire.GetBuf) owned by the caller, who
// recycles it; the conn never touches it again.
func readFrame(br *bufio.Reader, scratch *[4]byte) ([]byte, error) {
	if _, err := io.ReadFull(br, scratch[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(scratch[:])
	if n > MaxFrame {
		return nil, errFrameTooLarge
	}
	msg := wire.GetBuf(int(n))
	if _, err := io.ReadFull(br, msg); err != nil {
		wire.PutBuf(msg)
		return nil, err
	}
	return msg, nil
}

func (c *conn) Recv(ctx context.Context) ([]byte, error) {
	stop := c.watch(ctx, c.nc.SetReadDeadline)
	defer stop()
	msg, err := readFrame(c.br, &c.recvBuf)
	if errors.Is(err, errFrameTooLarge) {
		c.nc.Close()
		return nil, fmt.Errorf("tcpnet: inbound frame exceeds %d byte limit", MaxFrame)
	}
	if err != nil {
		return nil, c.mapCtxErr(ctx, err)
	}
	return msg, nil
}

// watch arms a context watcher that fires the given deadline setter when
// ctx ends, unblocking an in-flight read or write. The returned stop
// func disarms the watcher and clears the deadline.
func (c *conn) watch(ctx context.Context, setDeadline func(time.Time) error) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	stop := context.AfterFunc(ctx, func() {
		setDeadline(time.Unix(1, 0)) // a past deadline aborts the op
	})
	return func() {
		if !stop() {
			// The watcher ran: clear the poisoned deadline so later
			// operations on the connection are not spuriously aborted.
			setDeadline(time.Time{})
		}
	}
}

func (c *conn) Close() error { return c.nc.Close() }

// mapCtxErr attributes a deadline abort to the context that armed it.
func (c *conn) mapCtxErr(ctx context.Context, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) && ctx.Err() != nil {
		return ctx.Err()
	}
	return mapErr(err)
}

func mapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return transport.ErrClosed
	}
	return err
}
