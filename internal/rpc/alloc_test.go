package rpc

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
	"ccpfs/internal/transport/memnet"
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
	if got := allocatedBytes(10, func() { m = NewMetrics() }); got >= 3<<10 {
		t.Errorf("NewMetrics allocates %d bytes, want < 3 KiB", got)
	}
	// The per-method records and histograms it does not preallocate
	// appear on first use.
	m.CallHist(wire.MLock).Record(5)
	if m.CallHist(wire.MLock).Count() != 1 || m.HandleHist(wire.MLock).Count() != 0 {
		t.Fatal("lazily allocated histogram lost a sample")
	}
}

// virtualPair runs f with a client endpoint connected to a server whose
// endpoints setup configures, all on a seeded virtual clock, so that an
// allocation count sees only the round trip.
func virtualPair(t *testing.T, setup func(*Endpoint), f func(cli *Endpoint, clk sim.Clock)) {
	t.Helper()
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	v.Run(func() {
		net := memnet.New(hw)
		l, err := net.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(l, Options{Clock: hw.Clock}, setup)
		hw.Clock.Go(srv.Serve)
		defer srv.Close()
		conn, err := net.Dial("srv")
		if err != nil {
			t.Fatal(err)
		}
		cli := NewEndpoint(conn, Options{Clock: hw.Clock})
		cli.Start()
		defer cli.Close()
		f(cli, hw.Clock)
	})
}

// TestAllocBudgetInboundCall: an inbound request's record (callCtx) is
// recycled once its handler has returned, unless the handler asked for
// a Done channel — then whoever received the channel may still hold the
// record, and it is left to the collector. So after warm-up a round
// trip to a handler that never calls Done allocates nothing at all, and
// one to a handler that does pays for the record and its channel.
func TestAllocBudgetInboundCall(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	virtualPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MHello, func(context.Context, []byte) (wire.Msg, error) { return &wire.Ack{}, nil })
		ep.Handle(wire.MOpen, func(ctx context.Context, _ []byte) (wire.Msg, error) {
			_ = ctx.Done()
			return &wire.Ack{}, nil
		})
	}, func(cli *Endpoint, _ sim.Clock) {
		req := &wire.HelloRequest{ClientID: 1}
		call := func(m wire.Method) func() {
			return func() {
				if err := cli.Call(bg(), m, req, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a := testing.AllocsPerRun(100, call(wire.MHello)); a != 0 {
			t.Errorf("call to a handler that never calls Done: %.1f allocs, want 0", a)
		}
		if a := testing.AllocsPerRun(100, call(wire.MOpen)); a < 2 {
			t.Errorf("call to a handler that calls Done: %.1f allocs, want the record and its channel", a)
		}
	})
}

// TestRecycledCallCtxPoisoned: a handler that keeps its ctx past its
// return breaks Handler's rule, and finds the record zeroed — no
// endpoint, no base context — so its next use fails at once instead of
// reading a later request's state.
func TestRecycledCallCtxPoisoned(t *testing.T) {
	var kept context.Context
	virtualPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MHello, func(ctx context.Context, _ []byte) (wire.Msg, error) {
			kept = ctx
			return &wire.Ack{}, nil
		})
	}, func(cli *Endpoint, clk sim.Clock) {
		if err := cli.Call(bg(), wire.MHello, &wire.HelloRequest{ClientID: 1}, nil); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(time.Millisecond) // the handler's goroutine finishes
	})
	cc, ok := kept.(*callCtx)
	if !ok {
		t.Fatalf("handler ctx is %T", kept)
	}
	if cc.ep != nil || cc.base != nil || cc.frame != nil || cc.h != nil {
		t.Fatalf("recycled callCtx not cleared: %+v", cc)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Err on a recycled callCtx did not fail")
		}
	}()
	_ = kept.Err()
}
