package dataserver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/storage"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/transport/tcpnet"
	"ccpfs/internal/wire"
)

// chunk is the store's allocation unit: a flush that covers an absent
// chunk whole may leave its frame in the store as that chunk.
const chunk = 64 << 10

// classBuf is the capacity of the wire pool's 1 MiB class, the buffer a
// pool draw (and tcpnet's read loop) hands a 576 KiB or a 1 MiB frame.
const classBuf = 1<<20 + 1<<20/64

// flushFrame lays out a FlushRequest of chunks whole chunks of stripe,
// from chunk first on, in the frame enc builds, fills it from rnd and
// returns the frame, the data it carries in stripe order, and where in
// the frame the data of its first chunk starts.
func flushFrame(enc *wire.Encoder, stripe uint64, first, chunks int, sn uint64, rnd *rand.Rand) (frame, data []byte, at int) {
	wire.FlushHead(enc, stripe, 1, chunks)
	for i := range chunks {
		slot := wire.BlockSlot(enc, extent.Span(int64(first+i)*chunk, chunk), sn)
		if i == 0 {
			at = len(enc.Bytes()) - chunk
		}
		rnd.Read(slot)
		data = append(data, slot...)
	}
	return wire.TakeFrame(enc), data, at
}

// classFrame is a frame drawn from the pool's size classes, as tcpnet's
// read loop draws every delivery.
func classFrame(chunks int) *wire.Encoder {
	return wire.BodyEncoder(wire.FlushSize(chunks, int64(chunks)*chunk))
}

// exactFrame is a frame sized as the client sizes its flush frames.
func exactFrame(chunks int) *wire.Encoder {
	return wire.FlushEncoder(chunks, int64(chunks)*chunk)
}

// readBack reads n bytes of stripe from off through the MRead RPC.
func readBack(t *testing.T, ep *rpc.Endpoint, stripe uint64, off, n int64) []byte {
	t.Helper()
	var rep wire.ReadReply
	if err := ep.Call(context.Background(), wire.MRead, &wire.ReadRequest{Resource: stripe, Range: extent.Span(off, n)}, &rep); err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	if len(rep.Blocks) != 1 {
		t.Fatalf("read of stripe %d returned %d blocks", stripe, len(rep.Blocks))
	}
	return bytes.Clone(rep.Blocks[0].Data)
}

// inPool reports whether a draw from the pool class of frame's capacity
// hands frame's array back, drawing a few buffers at most.
func inPool(frame []byte) bool {
	for range 8 {
		if b := wire.GetBuf(cap(frame)); &b[:1][0] == &frame[:1][0] {
			return true
		}
	}
	return false
}

// TestFlushFrameKeptByRule: over memnet the data server receives the
// client's very frame, and its flush handler takes it (rpc.TakePayload)
// and offers it to the store. The store keeps it — its chunks are the
// frame's bytes, so an in-place overwrite of one shows in the frame —
// only when the new chunks are at least 15/16 of the frame's host
// allocation; a frame below that is copied and goes back to the pool at
// once (poisoned under -race). Every stripe must read back as flushed
// after the later cases' traffic has recycled their frames, and a kept
// frame must never be recycled: under -race that would poison stored
// bytes.
func TestFlushFrameKeptByRule(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // pooled buffers stay put
	srv, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	hello(t, ep, 1, true)
	rnd := rand.New(rand.NewSource(1))
	cases := []struct {
		name   string
		chunks int
		frame  func(chunks int) *wire.Encoder
		kept   bool
	}{
		{"one chunk: 72 KiB of pages", 1, exactFrame, false},
		{"nine chunks in a 1 MiB class buffer", 9, classFrame, false},
		{"nine chunks, exact frame", 9, exactFrame, true},
		{"sixteen chunks in a 1 MiB class buffer", 16, classFrame, true},
		{"sixteen chunks, exact frame", 16, exactFrame, true},
	}
	want := make([][]byte, len(cases))
	for i, tc := range cases {
		stripe := uint64(i + 1)
		frame, data, at := flushFrame(tc.frame(tc.chunks), stripe, 0, tc.chunks, 5, rnd)
		data[0], data[1] = 0x11, 0x11
		frame[at], frame[at+1] = 0x11, 0x11
		want[i] = data
		if err := ep.Call(context.Background(), wire.MFlush, &wire.Body{Frame: frame}, nil); err != nil {
			t.Fatal(err)
		}
		// Overwrite the stripe's first byte in place; a kept frame is the
		// chunk, so the frame shows it.
		if err := srv.Flush(&wire.FlushRequest{Resource: stripe, Blocks: []wire.Block{
			{Range: extent.Span(0, 1), SN: 6, Data: []byte{0x22}},
		}}); err != nil {
			t.Fatal(err)
		}
		data[0] = 0x22
		first, second := frame[at], frame[at+1]
		switch kept := first == 0x22; {
		case kept != tc.kept:
			t.Errorf("%s: kept = %v, want %v", tc.name, kept, tc.kept)
		case kept && second != 0x11:
			t.Errorf("%s: a kept frame reads %#x, so it was recycled", tc.name, second)
		case !kept && wire.RaceEnabled && (first != 0xDB || second != 0xDB):
			t.Errorf("%s: the copied frame reads %#x %#x, not poisoned: it did not go back to the pool", tc.name, first, second)
		case !kept && !wire.RaceEnabled && !inPool(frame):
			t.Errorf("%s: the copied frame did not go back to the pool", tc.name)
		}
	}
	for i, tc := range cases {
		if got := readBack(t, ep, uint64(i+1), 0, int64(len(want[i]))); !bytes.Equal(got, want[i]) {
			t.Errorf("%s: stripe reads back wrong from byte %d", tc.name, firstDiff(got, want[i]))
		}
	}
}

// TestKeptFramesBoundHostMemory: a flushed byte the store keeps in its
// frame costs at most 1/16 more host memory than a copy would. On the
// virtual clock, 8 MiB of whole chunks go through a data server in
// flush frames of 64 KiB, 576 KiB and 1 MiB, sized as the client sizes
// them, and the heap in use may grow by at most 1.07 x the bytes
// stored. Keeping 64 KiB frames (72 KiB of pages each) or 576 KiB ones
// in 1 MiB class buffers would break the bound.
func TestKeptFramesBoundHostMemory(t *testing.T) {
	const stored = 8 << 20
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	for _, chunks := range []int{1, 9, 16} {
		t.Run(fmt.Sprintf("%d KiB frames", chunks*chunk>>10), func(t *testing.T) {
			v := sim.NewVClock(1)
			clk := sim.Virtual(v)
			hw := sim.Hardware{Clock: clk}
			frames := stored / (chunks * chunk)
			v.Run(func() {
				net := memnet.New(hw)
				l, err := net.Listen("ds")
				if err != nil {
					t.Error(err)
					return
				}
				srv := New(Config{Policy: dlm.SeqDLM(), Hardware: hw})
				srv.Serve(l)
				defer srv.Close()
				conn, err := net.Dial("ds")
				if err != nil {
					t.Error(err)
					return
				}
				ep := rpc.NewEndpoint(conn, rpc.Options{Clock: clk})
				ep.Start()
				defer ep.Close()
				hello(t, ep, 1, true)
				rnd := rand.New(rand.NewSource(int64(chunks)))
				base := heapInuse()
				for f := range frames {
					frame, _, _ := flushFrame(exactFrame(chunks), 1, f*chunks, chunks, 1, rnd)
					if err := ep.Call(context.Background(), wire.MFlush, &wire.Body{Frame: frame}, nil); err != nil {
						t.Error(err)
						return
					}
				}
				want := int64(frames * chunks * chunk)
				grew := int64(heapInuse() - base)
				t.Logf("%d frames, %d KiB stored: heap in use grew %d KiB (%.3f x)", frames, want>>10, grew>>10, float64(grew)/float64(want))
				if grew*100 > want*107 {
					t.Errorf("heap in use grew %d bytes for %d stored, want <= 1.07 x", grew, want)
				}
				runtime.KeepAlive(srv)
			})
		})
	}
}

// keepLog records, for each flush the store is offered a frame with,
// the frame's capacity, the bytes it carries and whether it was kept.
type keepLog struct {
	storage.Store
	mu      sync.Mutex
	offered []offer
}

type offer struct {
	capacity, bytes int
	kept            bool
}

func (k *keepLog) WriteV(stripe uint64, vec []storage.Vec, frame []byte) storage.Pending {
	p := k.Store.WriteV(stripe, vec, frame)
	if frame != nil {
		n := 0
		for _, v := range vec {
			n += len(v.Data)
		}
		k.mu.Lock()
		k.offered = append(k.offered, offer{cap(frame), n, p.Kept()})
		k.mu.Unlock()
	}
	return p
}

// TestTCPFramesKeptByRule: over tcpnet the data server's frames are the
// class-sized buffers its read loop draws from the pool, and the keep
// rule sees them as they are: a 1 MiB flush fills its 1 MiB class
// buffer and is kept, a 576 KiB or a 64 KiB one is copied and its
// buffer recycled — to carry a later delivery. Flushes of all three
// sizes interleave, partial overwrites land on kept chunks, and every
// stripe must then read back as written; under -race a kept frame that
// was recycled reads as poison.
func TestTCPFramesKeptByRule(t *testing.T) {
	store := &keepLog{Store: storage.NewMemStore()}
	srv := New(Config{Policy: dlm.SeqDLM(), Store: store})
	l, err := tcpnet.New().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	defer srv.Close()
	conn, err := tcpnet.New().Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ep := rpc.NewEndpoint(conn, rpc.Options{})
	ep.Start()
	defer ep.Close()
	hello(t, ep, 1, true)

	rnd := rand.New(rand.NewSource(3))
	want := make(map[uint64][]byte)
	stripe := uint64(0)
	for range 4 {
		for _, chunks := range []int{16, 9, 1} {
			stripe++
			frame, data, _ := flushFrame(exactFrame(chunks), stripe, 0, chunks, 1, rnd)
			if err := ep.Call(context.Background(), wire.MFlush, &wire.Body{Frame: frame}, nil); err != nil {
				t.Fatal(err)
			}
			want[stripe] = data
			// Overwrite part of an earlier stripe's last chunk, kept or not.
			prev := 1 + uint64(rnd.Int63n(int64(stripe)))
			off := int64(len(want[prev])) - chunk/2
			patch := make([]byte, 100)
			rnd.Read(patch)
			if err := ep.Call(context.Background(), wire.MFlush, &wire.FlushRequest{Resource: prev, Client: 1, Blocks: []wire.Block{
				{Range: extent.Span(off, int64(len(patch))), SN: 2 + uint64(stripe), Data: patch},
			}}, nil); err != nil {
				t.Fatal(err)
			}
			copy(want[prev][off:], patch)
		}
	}
	for s := uint64(1); s <= stripe; s++ {
		if got := readBack(t, ep, s, 0, int64(len(want[s]))); !bytes.Equal(got, want[s]) {
			t.Errorf("stripe %d (%d KiB) reads back wrong from byte %d", s, len(want[s])>>10, firstDiff(got, want[s]))
		}
	}

	store.mu.Lock()
	defer store.mu.Unlock()
	kept := 0
	for _, o := range store.offered {
		if o.bytes < chunk {
			continue // a patch
		}
		if o.capacity < o.bytes || o.capacity > classBuf {
			t.Errorf("a %d-byte flush arrived in a %d-byte buffer, not a pool class", o.bytes, o.capacity)
		}
		if want := o.bytes == 16*chunk; o.kept != want {
			t.Errorf("a %d KiB flush in a %d-byte buffer: kept = %v, want %v", o.bytes>>10, o.capacity, o.kept, want)
		}
		if o.kept {
			kept++
		}
	}
	if kept != 4 {
		t.Errorf("%d frames kept, want the four 1 MiB ones", kept)
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
