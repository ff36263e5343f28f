package wire

import (
	"math/bits"
	"sync"
)

// Buffer ownership rules
//
// Every byte of a message lives in exactly one pooled buffer per hop,
// and every buffer has one owner at a time and one place where it goes
// back to its pool (DESIGN.md §8 walks the whole path):
//
//   - Encoder frames (sender side). rpc's send paths size the encoder
//     from the message (Sizer) so a bulk payload is copied into the
//     frame once, with no growth. The frame returned by Encoder.Bytes is
//     owned by the encoder; a transport.Conn must not retain it after
//     Send/SendBatch returns (memnet copies it into the delivered
//     frame, tcpnet writes it out synchronously), so the sender calls
//     PutEncoder as soon as Send returns. That is the only place an
//     encoder is recycled. (An Encoder is a recycled header around a
//     GetBuf buffer: frames share the pools below with everything else.)
//
//   - Delivered frames (receiver side). Both transports deliver each
//     message in a buffer drawn from GetBuf; Conn.Recv hands it to its
//     caller, who owns it from then on — the transport never touches it
//     again. Decoded messages may alias it (Decoder.Bytes32 does not
//     copy). The rpc read loop is the owner and recycles by kind:
//
//     request frames are recycled by the dispatch goroutine once the
//     handler has returned and its reply has been sent, or earlier by
//     the handler itself with rpc.ReleasePayload, after which the
//     dispatch goroutine puts nothing back. A handler that keeps payload
//     bytes past its return or its release must copy them. The data
//     server's flush handler releases its frame as soon as the store's
//     WriteV returns, which is when the store has the blocks' bytes, so
//     a flush waiting out a simulated device backlog holds no frame.
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
//   - Message payloads (GetBuf/PutBuf elsewhere): the caller that Gets
//     a buffer owns it until it either Puts it back or hands it to a
//     message that implements Recycler; the rpc layer calls Recycle the
//     moment the message is encoded, when its bytes are in the frame.
//     Both bulk payloads travel this way: the page cache collects a
//     flush block into a pooled buffer and the client's flush request
//     gives it back at encode time, and the data server reads into a
//     pooled buffer that its read reply gives back. The buffer a flush
//     has just released is what the next frame or delivery of that size
//     is built in, so a burst of flushes does not hold every stage's
//     copy of every byte at once.
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
// In -race builds PutBuf and PutEncoder overwrite the buffer with 0xDB
// before pooling it, so anything that reads a frame after its owner
// recycled it sees garbage and fails the read-back checks of the
// end-to-end tests instead of passing by luck.
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

// encoders recycles Encoder values. The frames they build come from the
// same pools as every other buffer (GetBuf), so a frame a sender has
// just finished with serves the next delivery of that size and the
// other way round — except that a recycled encoder keeps a buffer of the
// smallest class, which is what nearly every frame needs: a lock
// request costs one pool operation here, not three.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled encoder with capacity for at least n
// bytes. Pair with PutEncoder once the frame is no longer referenced.
func GetEncoder(n int) *Encoder {
	e := encoders.Get().(*Encoder)
	if cap(e.buf) < n {
		PutBuf(e.buf)
		e.buf = GetBuf(n)
	}
	e.buf = e.buf[:0]
	return e
}

// PutEncoder recycles an encoder obtained from GetEncoder. The caller
// must not touch the encoder or any frame it returned afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > classCap(0) {
		PutBuf(e.buf)
		e.buf = nil
	} else {
		poison(e.buf[:cap(e.buf)])
	}
	encoders.Put(e)
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

// PutBlocks returns the data buffers of blocks, which came from GetBuf,
// to their pools and drops the references — the body of a Recycler whose
// payload is a block list.
func PutBlocks(blocks []Block) {
	for i := range blocks {
		PutBuf(blocks[i].Data)
		blocks[i].Data = nil
	}
}

// Recycler is implemented by messages — requests or replies — whose
// payload rides in pooled buffers. The rpc layer calls Recycle exactly
// once, as soon as the message is encoded into its frame, returning the
// buffers to their pool; the message's payload is gone afterwards.
type Recycler interface{ Recycle() }

// FrameHolder is implemented by reply messages whose decoded fields
// alias the frame they were decoded from. Instead of recycling the
// response frame after decoding, the rpc layer hands it to the reply
// with HoldFrame; the caller that owns the reply returns it to the pool
// (ReadReply.Release) after its last use of the aliased bytes.
type FrameHolder interface{ HoldFrame(frame []byte) }
