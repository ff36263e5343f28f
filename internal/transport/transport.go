// Package transport abstracts the message fabric ccPFS runs on. The
// paper's prototype uses CaRT/Mercury over InfiniBand verbs; this
// reproduction provides two interchangeable fabrics behind one interface:
//
//   - memnet: an in-process network with simulated latency, per-link
//     bandwidth, and deterministic delivery order, used by the test and
//     benchmark cluster harness;
//   - tcpnet: real TCP with length-prefixed frames, used by the
//     standalone server and CLI binaries.
//
// Both fabrics carry the exact same wire messages through the exact same
// RPC, lock, and data paths.
package transport

import (
	"context"
	"errors"
)

// ErrClosed is returned by operations on a closed connection, listener,
// or network.
var ErrClosed = errors.New("transport: closed")

// Conn is a reliable, ordered, message-oriented duplex connection.
// Send and Recv are safe for concurrent use with each other; multiple
// concurrent Senders are allowed, multiple concurrent Recvs are not.
//
// Both operations honor their context: when it fires mid-operation they
// return the context's error promptly. A canceled Send does not
// guarantee the message was not delivered (it may already be in flight);
// the connection itself stays usable either way.
// Buffer ownership: a Conn must not retain msg after Send (or SendBatch)
// returns — it either copies the bytes or writes them out synchronously.
// The caller is therefore free to reuse or recycle the buffer the moment
// the call returns (the rpc layer pools its encoder frames on this
// contract). Symmetrically, a slice returned by Recv is owned by the
// caller; the Conn never touches it again. Both fabrics deliver into
// pooled buffers (wire.GetBuf), so a caller that knows when it is done
// with a frame may hand it back with wire.PutBuf, as the rpc layer does;
// one that does not simply drops it.
type Conn interface {
	// Send transmits one message. It may block for simulated or real
	// transmission time, bounded by ctx.
	Send(ctx context.Context, msg []byte) error
	// Recv returns the next message. It blocks until a message arrives,
	// ctx fires, or the connection closes, in which case it returns
	// ErrClosed.
	Recv(ctx context.Context) ([]byte, error)
	// Close tears the connection down; pending and future operations on
	// both ends fail with ErrClosed.
	Close() error
}

// BatchSender is implemented by connections with a coalesced multi-frame
// send path: all messages go out as one unit (one syscall on tcpnet, one
// lock acquisition and bandwidth charge on memnet), preserving order and
// the Send ownership contract. Messages are delivered individually by
// the peer's Recv.
type BatchSender interface {
	SendBatch(ctx context.Context, msgs [][]byte) error
}

// SendBatch transmits msgs over c in one coalesced batch when the
// connection supports it, falling back to sequential Sends (stopping at
// the first error) otherwise.
func SendBatch(ctx context.Context, c Conn, msgs [][]byte) error {
	var total int64
	for _, m := range msgs {
		total += int64(len(m))
	}
	recordBatch(len(msgs), total)
	if bs, ok := c.(BatchSender); ok {
		return bs.SendBatch(ctx, msgs)
	}
	for _, m := range msgs {
		if err := c.Send(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

// Listener accepts inbound connections at an address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Network creates listeners and dials peers. Addresses are opaque
// strings; memnet uses node names, tcpnet uses host:port.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}
