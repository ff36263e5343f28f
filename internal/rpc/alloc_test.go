package rpc

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// idleConn is a connection nothing is ever sent on.
type idleConn struct{}

func (idleConn) Send(context.Context, []byte) error   { return nil }
func (idleConn) Recv(context.Context) ([]byte, error) { return nil, transport.ErrClosed }
func (idleConn) Close() error                         { return nil }

// allocatedBytes returns the heap bytes f allocates per call, averaged
// over runs — like testing.AllocsPerRun on one P, so that every
// goroutine shares one sync.Pool shard, and with the collector off so
// the frame pools keep what the warm-up calls put in them. (Several: a
// reply overtakes the server's recycling of the request frame, so the
// pools settle at one buffer more than a single call has in flight.)
func allocatedBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 4; i++ {
		f()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestAllocBudgetBulkCall: after the first one, a flush call of 64 KiB
// or 1 MiB allocates no buffer at all — not on the sender (the frame is
// sized up front and pooled), not in memnet (the delivered frame is
// pooled), not on the server (the request frame is recycled once the
// reply is sent) — only the per-call bookkeeping, under 1 KiB.
func TestAllocBudgetBulkCall(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var want []byte
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MFlush, func(_ context.Context, p []byte) (wire.Msg, error) {
			var req wire.FlushRequest
			if err := wire.Unmarshal(p, &req); err != nil {
				return nil, err
			}
			if len(req.Blocks) != 1 || !bytes.Equal(req.Blocks[0].Data, want) {
				return nil, wire.Errorf(wire.CodeInvalid, "flush payload corrupted")
			}
			return &wire.Ack{}, nil
		})
	})
	for _, size := range []int{64 << 10, 1 << 20} {
		want = bytes.Repeat([]byte{byte(size >> 16)}, size)
		req := &wire.FlushRequest{Resource: 1, Client: 1, Blocks: []wire.Block{{Range: extent.Span(0, int64(size)), SN: 1, Data: want}}}
		if got := allocatedBytes(20, func() {
			if err := cli.Call(bg(), wire.MFlush, req, nil); err != nil {
				t.Fatal(err)
			}
		}); got >= 1<<10 {
			t.Errorf("flush call of %d bytes allocates %d bytes, want < 1 KiB", size, got)
		}
	}
}

// TestAllocBudgetSetUp bounds what a connection and an instrument set
// cost before any traffic: a simulated cluster builds sixteen endpoints
// per client and one Metrics per client and server, so both are part of
// every run's set-up time and live heap.
func TestAllocBudgetSetUp(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var ep *Endpoint
	if got := allocatedBytes(10, func() { ep = NewEndpoint(idleConn{}, Options{}) }); got >= 4<<10 {
		t.Errorf("NewEndpoint allocates %d bytes, want < 4 KiB", got)
	}
	_ = ep
	var m *Metrics
	if got := allocatedBytes(10, func() { m = NewMetrics() }); got >= 16<<10 {
		t.Errorf("NewMetrics allocates %d bytes, want < 16 KiB", got)
	}
	// The histograms it no longer preallocates appear on first use.
	m.CallHist(wire.MLock).Record(5)
	if m.CallHist(wire.MLock).Count() != 1 || m.HandleHist(wire.MLock).Count() != 0 {
		t.Fatal("lazily allocated histogram lost a sample")
	}
}
