// Package tcpnet implements transport.Network over real TCP sockets with
// length-prefixed frames. It is what the standalone ccpfs-server and
// ccpfs-cli binaries use, demonstrating that the reproduction is a real
// networked system and not only a simulation harness.
//
// Each Send writes its frame's 4-byte length prefix and payload with one
// writev under the connection's write mutex, so concurrent senders never
// interleave bytes of two frames and a frame costs one syscall.
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

	// wmu serializes Sends; the fields below it are one Send's iovec
	// (length prefix, payload), kept here so a Send allocates nothing.
	wmu sync.Mutex
	hdr [4]byte
	iov [2][]byte
	wb  net.Buffers

	recvBuf [4]byte
}

func newConn(nc net.Conn) *conn {
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// Send writes msg's length prefix and payload in one writev and puts msg
// back to its pool once the socket has all of it.
//
// A Send canceled mid-frame would corrupt the stream for every later
// message, so cancellation poisons the whole connection: the watcher
// forces a past write deadline, which aborts the write in flight (this
// Send's, or the one it is queued behind), and a write cut off inside
// its frame closes the connection, so the peer's Recv fails instead of
// reading later frames as the rest of this one. A frame that was not
// fully written is left to the collector.
func (c *conn) Send(ctx context.Context, msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(msg))
	}
	if err := ctx.Err(); err != nil {
		wire.PutBuf(msg)
		return err
	}
	stop := c.watch(ctx, c.nc.SetWriteDeadline)
	c.wmu.Lock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(msg)))
	c.iov = [2][]byte{c.hdr[:], msg}
	c.wb = c.iov[:]
	n, err := c.wb.WriteTo(c.nc)
	c.iov[1] = nil
	if whole := int64(len(c.hdr) + len(msg)); n == whole {
		wire.PutBuf(msg)
	} else if n > 0 {
		c.nc.Close()
	}
	// Clear a poisoned deadline before the next sender writes.
	stop()
	c.wmu.Unlock()
	return c.mapCtxErr(ctx, err)
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
