package wire

import (
	"math/bits"
	"sync"
)

// Buffer ownership rules
//
// Every byte of a message is copied only into a buffer that keeps it,
// and the buffer then changes hands instead of being copied again. Each
// buffer has one owner at a time and one place where it goes back to
// its pool (DESIGN.md §8 walks the whole path):
//
//   - Frames (sender side). rpc builds each frame in a buffer from
//     GetBuf: an ordinary message through a pooled Encoder sized from
//     the message (Sizer), so a bulk payload is copied into it once with
//     no growth; a Body — a message built in place by the layer that had
//     the bytes — is already its frame. Either way the frame is handed
//     to transport.Conn.Send, which takes it: memnet queues the array
//     itself and the peer's Recv returns it; tcpnet PutBufs it once it
//     is fully written (and leaves one whose write was cut off mid-frame
//     to the collector). TakeFrame is how rpc gets the frame
//     out of its Encoder: the Encoder header goes back to its pool, the
//     frame goes on. Two Bodies carry bulk bytes: the client's flush
//     frames, which the page cache's collection pass fills straight from
//     the pages, and the data server's read replies, which the store
//     fills. A flush frame of 128 KiB of payload or more is the one frame
//     not drawn from GetBuf: FlushEncoder allocates it at its exact size,
//     because the data server's store may keep it for good. A Body that Call did not send (its context fired first)
//     still holds its frame, and its owner PutBufs it.
//
//   - Delivered frames (receiver side). Conn.Recv hands each message to
//     its caller in a pooled buffer — on memnet the sender's own frame,
//     on tcpnet one drawn from GetBuf — and the caller owns it from then
//     on; the transport never touches it again. Decoded messages may
//     alias it (Decoder.Bytes32 does not copy). The rpc read loop is the
//     owner and recycles by kind:
//
//     request frames are recycled by the dispatch goroutine once the
//     handler has returned and its reply has been sent, or released
//     earlier by the handler itself with rpc.ReleasePayload, or taken by
//     the handler with rpc.TakePayload; after a release or a take the
//     dispatch goroutine puts nothing back. A handler that keeps payload
//     bytes past its return or its release must copy them, unless it
//     took the frame, which is then its own. The data server's flush
//     handler takes its frame and offers it to the store with the write:
//     a store that keeps it (storage.MemStore, when the chunks it makes
//     from the frame are at least 15/16 of the frame's allocation) holds
//     it for good as its stored bytes, and a frame the store did not keep
//     is put back as soon as WriteV returns, which is when the store has
//     the blocks' bytes, so a flush waiting out a simulated device
//     backlog holds no frame.
//
//     A request frame thus has exactly one owner at a time, and a kept
//     one is stored bytes that never go back to a pool. A transport that
//     delivered one frame twice (say a memnet fault that duplicates a
//     delivery) must clone it for the second delivery, or two handlers
//     would own — and a store might keep — the same array.
//
//     response frames are recycled by the caller's side of Call as soon
//     as the reply is decoded — except when the reply implements
//     FrameHolder (ReadReply: its Blocks[i].Data alias the frame). Then
//     the frame is handed to the reply and goes back when the caller
//     calls Release, after its last use of the data (File.fetch, after
//     the page-cache fill). A holder that is never released is simply
//     left to the collector. Error responses and stale or discarded
//     replies are recycled on the spot.
//
//   - Other buffers from GetBuf: the caller that Gets one owns it until
//     it Puts it back or hands it on (a frame to a Conn). The page
//     cache's CollectDirty returns its blocks in such buffers.
//
//   - Decoders hold no buffer of their own. Unmarshal's lives on its
//     caller's stack, so a handler's decoded request — which may alias
//     the request frame — is a stack value that dies with the handler,
//     when the frame goes back. UnmarshalMsg's Decoder comes from a pool
//     and is cleared before it goes back, so a pooled decoder
//     never keeps a frame reachable. A message decoded into a reused
//     value (the lock server's pooled RevokeBatchAck) reuses the
//     capacity its slices already have; it copies what it decodes, so
//     it holds nothing of the frame either.
//
// In -race builds PutBuf overwrites the buffer with 0xDB before pooling
// it, so anything that reads a frame after its owner recycled it — a
// sender that touches a frame it has handed to a Conn, a receiver that
// keeps one past its release — sees garbage and fails the read-back
// checks of the end-to-end tests instead of passing by luck.
//
// Pools are size-classed so a 1 MiB flush frame does not pin a pool
// slot that every 30-byte lock request then inherits. Class k holds
// buffers of capacity 2^k + 2^k/64: the payload sizes that matter are
// powers of two (a 64 KiB write, a 1 MiB stripe run) and the frame that
// carries one is a few dozen header bytes longer, so the slack keeps
// payload + header in the payload's own class rather than the next one
// up. Get draws from the smallest class that fits and a miss allocates
// that class's capacity, so Put — which files a buffer under the
// largest class it can fully serve — returns it to the pool the same
// Get looks in, and no Get is handed more than twice what it asked for.

const (
	minClassBits = 8  // smallest class: 256 B + slack
	maxClassBits = 24 // largest class: 16 MiB + slack; beyond it, plain allocation
	numClasses   = maxClassBits - minClassBits + 1
)

// classCap returns the buffer capacity of class i.
func classCap(i int) int {
	c := 1 << (minClassBits + i)
	return c + c/64
}

// classFor returns the index of the smallest class that holds n bytes,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= classCap(0) {
		return 0
	}
	// 2^(i+minClassBits) is the smallest power of two >= n; the class
	// below also fits when n is within its slack.
	i := bits.Len(uint(n-1)) - minClassBits
	if n <= classCap(i-1) {
		i--
	}
	if i >= numClasses {
		return -1
	}
	return i
}

// classUnder returns the index of the largest class a buffer of
// capacity c can fully serve, or -1 when c is below the smallest class.
func classUnder(c int) int {
	if c < classCap(0) {
		return -1
	}
	i := bits.Len(uint(c)) - 1 - minClassBits
	if i >= numClasses {
		i = numClasses - 1
	}
	if classCap(i) > c {
		i--
	}
	return i
}

// encoders recycles Encoder headers. The frames they build come from
// the same pools as every other buffer (GetBuf) and leave with the
// frame (TakeFrame), so a frame a transport has just finished with
// serves the next frame or delivery of that size.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// BodyEncoder returns a pooled encoder that builds a message of size
// bytes in place, after HeadRoom bytes of room for the rpc header.
// Finish with TakeFrame (Body{Frame: TakeFrame(e)} for a Body).
func BodyEncoder(size int) *Encoder {
	e := encoders.Get().(*Encoder)
	e.buf = GetBuf(HeadRoom + size)[:HeadRoom]
	return e
}

// TakeFrame returns the frame e built and recycles e without it. The
// frame is a pooled buffer and the caller's from then on: it hands it
// to a transport.Conn, which takes it, or PutBufs it. The caller must
// not touch e afterwards.
func TakeFrame(e *Encoder) []byte {
	b := e.buf
	e.buf = nil
	encoders.Put(e)
	return b
}

// bufPools hold *[]byte so that a slice travels through sync.Pool
// without boxing; the pointer cells themselves cycle through cellPool,
// so neither GetBuf nor PutBuf allocates in steady state.
var (
	bufPools [numClasses]sync.Pool
	cellPool sync.Pool
)

// GetBuf returns a length-n byte slice drawn from the size-classed
// pools (plain allocation beyond the largest class). Its contents are
// unspecified.
func GetBuf(n int) []byte {
	i := classFor(n)
	if i < 0 {
		return make([]byte, n)
	}
	if v := bufPools[i].Get(); v != nil {
		cell := v.(*[]byte)
		b := (*cell)[:n]
		*cell = nil
		cellPool.Put(cell)
		return b
	}
	return make([]byte, n, classCap(i))
}

// PutBuf recycles a buffer obtained from GetBuf. The caller must not
// touch it afterwards.
func PutBuf(b []byte) {
	i := classUnder(cap(b))
	if i < 0 {
		return
	}
	poison(b[:cap(b)])
	cell, _ := cellPool.Get().(*[]byte)
	if cell == nil {
		cell = new([]byte)
	}
	*cell = b[:0]
	bufPools[i].Put(cell)
}

// Sizer is implemented by messages that know their encoded size before
// encoding — the bulk ones, whose frame is dominated by block data. The
// rpc layer asks it for the frame's capacity up front, so the payload is
// copied into the frame once instead of through a chain of appends.
type Sizer interface{ EncodedSize() int }

// FrameHolder is implemented by reply messages whose decoded fields
// alias the frame they were decoded from. Instead of recycling the
// response frame after decoding, the rpc layer hands it to the reply
// with HoldFrame; the caller that owns the reply returns it to the pool
// (ReadReply.Release) after its last use of the aliased bytes.
type FrameHolder interface{ HoldFrame(frame []byte) }
