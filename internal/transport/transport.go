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
// guarantee the message was not delivered (it may already be in
// flight). On memnet the connection stays usable either way; on tcpnet
// a Send canceled in the middle of its frame leaves the stream cut off
// mid-frame, so the peer's Recv fails and both ends tear down.
//
// Buffer ownership: Send takes the frame it is given. The caller must
// not touch msg again once the call starts, whatever it returns, and
// the bytes are not copied on the way: memnet queues the sender's frame
// itself and the peer's Recv returns that same array; tcpnet writes it
// out and puts it back to its pool (wire.PutBuf) once it is fully
// written — a frame whose write was cut off mid-frame is left to the
// collector instead. So a frame should be a pooled buffer
// (wire.GetBuf), as the rpc layer's are; any other slice just ends up
// in a pool or with the collector. Symmetrically, a slice returned by
// Recv is owned by the caller; the Conn never touches it again. It is a
// pooled buffer on both fabrics, so a caller that knows when it is done
// with a frame may hand it back with wire.PutBuf, as the rpc layer
// does; one that does not simply drops it.
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
