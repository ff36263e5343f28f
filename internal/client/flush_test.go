package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/pagecache"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// flushRecorder is a data server stand-in that keeps a copy of every
// flush payload it receives and fails the call numbered failAt (0-based;
// -1 never fails).
type flushRecorder struct {
	mu       sync.Mutex
	payloads [][]byte
	failAt   int
}

func (r *flushRecorder) handle(_ context.Context, p []byte) (wire.Msg, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.payloads = append(r.payloads, bytes.Clone(p))
	if len(r.payloads)-1 == r.failAt {
		return nil, errors.New("injected flush failure")
	}
	return &wire.Ack{}, nil
}

// take returns the recorded payloads and resets the recorder to fail
// the call numbered failAt.
func (r *flushRecorder) take(failAt int) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.payloads
	r.payloads, r.failAt = nil, failAt
	return p
}

// wantFrames is the reference for one flushGroup: every stripe's dirty
// blocks collected by CollectDirty from a cache holding the same data,
// cut by the maxRPC rule, and marshaled as FlushRequests. It also
// returns the collected blocks, so a simulated failure can re-dirty
// them.
func wantFrames(pc *pagecache.Cache, rids []uint64, rng extent.Extent, sn extent.SN, client uint32, maxRPC int64) ([][]byte, map[uint64][]pagecache.Block) {
	var frames [][]byte
	collected := make(map[uint64][]pagecache.Block)
	for _, rid := range rids {
		blocks := pc.CollectDirty(rid, rng, sn)
		if len(blocks) == 0 {
			continue
		}
		collected[rid] = blocks
		var req wire.FlushRequest
		var size int64
		for _, b := range blocks {
			if size > 0 && size+int64(len(b.Data)) > maxRPC {
				frames = append(frames, wire.Marshal(&req))
				req.Blocks, size = nil, 0
			}
			req.Resource, req.Client = rid, client
			req.Blocks = append(req.Blocks, wire.Block{Range: b.Range, SN: b.SN, Data: b.Data})
			size += int64(len(b.Data))
		}
		frames = append(frames, wire.Marshal(&req))
	}
	return frames, collected
}

// TestFlushFrameMatchesMarshal checks the flush frames the page cache's
// collection pass fills in place against wire.Marshal of the equivalent
// FlushRequests, for random dirty layouts across several stripes of one
// server — SN interleavings, partial ranges and SN bounds, splits at
// maxRPC and blocks larger than it — as the data server receives
// them. Each layout is flushed twice. The first flush fails at a random
// RPC, which must re-dirty every collected block by range and SN and put
// the unsent frames back; the pools are then scribbled over, and the
// cache must still read as written (no frame's bytes leak back to a
// reader) and the retry, through a flush window, must send the same
// frames again.
func TestFlushFrameMatchesMarshal(t *testing.T) {
	const (
		maxRPC = 8 << 10
		span   = 96 << 10
	)
	h := newHarness(t, dlm.SeqDLM(), 1)
	rec := &flushRecorder{failAt: -1}
	l, err := h.net.Listen("recorder")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(l, rpc.Options{}, func(ep *rpc.Endpoint) { ep.Handle(wire.MFlush, rec.handle) })
	go srv.Serve()
	defer srv.Close()
	conn, err := h.net.Dial("recorder")
	if err != nil {
		t.Fatal(err)
	}
	bulk := rpc.NewEndpoint(conn, rpc.Options{})
	bulk.Start()
	defer bulk.Close()

	cfg := pagecache.Config{PageSize: 4096}
	var splits, oversized int // coverage of the maxRPC rule's two cases
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		cl := h.client(Config{PageCache: cfg})
		cl.maxRPC, cl.windows[0] = maxRPC, sim.NewWindow(cl.clk, 1)
		cl.conns.Bulk = []*rpc.Endpoint{bulk}
		ref := pagecache.New(cfg)
		rids := []uint64{uint64(seed)<<8 | 1, uint64(seed)<<8 | 2, uint64(seed)<<8 | 3, uint64(seed)<<8 | 4}
		// The last stripe's first two blocks fill one RPC to exactly
		// maxRPC, and the third starts the next.
		for i := int64(0); i < 3; i++ {
			data := bytes.Repeat([]byte{byte(seed + i)}, maxRPC/2)
			cl.pc.Write(rids[3], i*maxRPC/2, data, extent.SN(3-i))
			ref.Write(rids[3], i*maxRPC/2, data, extent.SN(3-i))
		}
		for _, rid := range rids[:3] {
			for w := rnd.Intn(12); w >= 0; w-- {
				off := rnd.Int63n(span)
				data := make([]byte, 1+rnd.Int63n(min(3*maxRPC, span-off)))
				rnd.Read(data)
				sn := extent.SN(1 + rnd.Intn(4))
				cl.pc.Write(rid, off, data, sn)
				ref.Write(rid, off, data, sn)
			}
		}
		rng := extent.New(0, extent.Inf)
		if seed%4 == 0 {
			start := rnd.Int63n(span / 2)
			rng = extent.New(start, start+rnd.Int63n(span/2)+1)
		}
		maxSN := extent.SN(^uint64(0))
		if seed%5 == 0 {
			maxSN = extent.SN(1 + rnd.Intn(3))
		}

		want, collected := wantFrames(ref, rids, rng, maxSN, uint32(cl.cfg.ID), maxRPC)
		if len(want) == 0 {
			if err := cl.flushGroup(context.Background(), rids, rng, maxSN, time.Time{}); err != nil || len(rec.take(-1)) != 0 {
				t.Fatalf("seed %d: flushing nothing: %v", seed, err)
			}
			continue
		}
		if len(want) > len(collected) {
			splits++
		}
		for _, f := range want {
			if len(f) > maxRPC+wire.FlushSize(1, 0) {
				oversized++ // only a lone block larger than maxRPC makes one
			}
		}
		failAt := rnd.Intn(len(want))
		rec.take(failAt)
		if err := cl.flushGroup(context.Background(), rids, rng, maxSN, time.Time{}); err == nil {
			t.Fatalf("seed %d: flush with RPC %d of %d failing succeeded", seed, failAt, len(want))
		}
		got := rec.take(-1)
		if len(got) != failAt+1 {
			t.Fatalf("seed %d: %d RPCs reached the server, want %d", seed, len(got), failAt+1)
		}
		checkFrames(t, fmt.Sprintf("seed %d, failed flush", seed), got, want)

		for rid, blocks := range collected {
			ref.Redirty(rid, blocks)
		}
		if cl.pc.DirtyBytes() != ref.DirtyBytes() {
			t.Fatalf("seed %d: %d dirty bytes after the failed flush, want %d re-dirtied", seed, cl.pc.DirtyBytes(), ref.DirtyBytes())
		}
		for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10} {
			for i := 0; i < 8; i++ {
				b := wire.GetBuf(size + wire.HeadRoom + 64)
				for j := range b {
					b[j] = 0xEE
				}
				wire.PutBuf(b)
			}
		}
		for _, rid := range rids {
			gotBuf, wantBuf := make([]byte, span+3*maxRPC), make([]byte, span+3*maxRPC)
			cl.pc.Read(rid, 0, gotBuf)
			ref.Read(rid, 0, wantBuf)
			if !bytes.Equal(gotBuf, wantBuf) {
				t.Fatalf("seed %d: stripe %d reads differently after the failed flush", seed, rid)
			}
		}

		// The retry runs the flush window (the failure above ran it
		// sequentially, so no RPC of it can still be on its way).
		cl.windows[0] = sim.NewWindow(cl.clk, 1+int(seed%3))
		want, _ = wantFrames(ref, rids, rng, maxSN, uint32(cl.cfg.ID), maxRPC)
		if err := cl.flushGroup(context.Background(), rids, rng, maxSN, time.Time{}); err != nil {
			t.Fatalf("seed %d: retry: %v", seed, err)
		}
		got = rec.take(-1)
		if len(got) != len(want) {
			t.Fatalf("seed %d: retry sent %d RPCs, want %d", seed, len(got), len(want))
		}
		checkFrames(t, fmt.Sprintf("seed %d, retry", seed), got, want)
		if cl.pc.DirtyBytes() != ref.DirtyBytes() {
			t.Fatalf("seed %d: %d dirty bytes after the retry, want %d", seed, cl.pc.DirtyBytes(), ref.DirtyBytes())
		}
	}
	if splits == 0 || oversized == 0 {
		t.Fatalf("layouts split a stripe %d times and made %d oversized frames; want both", splits, oversized)
	}
}

// checkFrames compares received flush payloads with the reference
// frames. With a window wider than one the RPCs may arrive in any
// order, so each payload is matched against an unused reference frame.
func checkFrames(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	used := make([]bool, len(want))
next:
	for i, p := range got {
		for j, w := range want {
			if !used[j] && bytes.Equal(p, w) {
				used[j] = true
				continue next
			}
		}
		t.Fatalf("%s: flush RPC %d (%d bytes) matches no reference frame", what, i, len(p))
	}
}
