package dlm

import (
	"context"
	"errors"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// TestAcquireCancelWithdrawsWaiter: canceling a blocked Acquire returns
// promptly with a typed cancellation error, leaves no zombie entry in
// the server queue, and a later acquire of the same resource succeeds.
func TestAcquireCancelWithdrawsWaiter(t *testing.T) {
	h := newHarness(t, SeqDLM(), 3)
	gate := make(chan struct{})
	h.setRevokeGate(gate) // stall revocation delivery so client 2 stays queued

	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
	_ = a

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := h.client(2).Acquire(ctx, 1, NBW, extent.New(0, extent.Inf))
		errc <- err
	}()
	waitFor(t, "waiter queued", func() bool { return h.srv.QueueLen(1) == 1 })

	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Acquire = %v, want context.Canceled", err)
		}
		if !errors.Is(err, wire.ErrCanceled) {
			t.Fatalf("canceled Acquire = %v, want wire.ErrCanceled match", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled Acquire did not return promptly")
	}
	if n := h.srv.QueueLen(1); n != 0 {
		t.Fatalf("queue has %d entries after withdrawal, want 0", n)
	}

	// Unblock the stalled revocation; client 1's lock cancels, and a
	// fresh acquire by client 3 must succeed.
	close(gate)
	hd, err := h.client(3).Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
	if err != nil {
		t.Fatalf("acquire after withdrawal: %v", err)
	}
	h.client(3).Unlock(hd)
}

// TestAcquireDeadlineTypedError: a blocked Acquire whose deadline
// expires returns within the deadline (not the revocation's duration)
// and the error matches both the context sentinel and the typed wire
// timeout.
func TestAcquireDeadlineTypedError(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	gate := make(chan struct{})
	h.setRevokeGate(gate)
	defer close(gate)

	mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := h.client(2).Acquire(ctx, 1, NBW, extent.New(0, extent.Inf))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("Acquire = %v, want wire.ErrTimeout match", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Acquire took %v after a 50ms deadline", elapsed)
	}
	if n := h.srv.QueueLen(1); n != 0 {
		t.Fatalf("queue has %d entries after deadline, want 0", n)
	}
}

// TestShutdownFailsQueuedWaiters: Server.Shutdown fails queued waiters
// with the typed shutting-down error and rejects new lock requests.
func TestShutdownFailsQueuedWaiters(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	gate := make(chan struct{})
	h.setRevokeGate(gate)
	defer close(gate)

	mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))

	errc := make(chan error, 1)
	go func() {
		_, err := h.client(2).Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
		errc <- err
	}()
	waitFor(t, "waiter queued", func() bool { return h.srv.QueueLen(1) == 1 })

	h.srv.Shutdown()
	select {
	case err := <-errc:
		if !errors.Is(err, wire.ErrShuttingDown) {
			t.Fatalf("queued Acquire after Shutdown = %v, want wire.ErrShuttingDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued Acquire did not fail on Shutdown")
	}
	if _, err := h.srv.Lock(context.Background(), Request{
		Client: 2, Resource: 1, Mode: NBW, Range: extent.New(0, 10),
	}); !errors.Is(err, wire.ErrShuttingDown) {
		t.Fatalf("Lock on draining server = %v, want wire.ErrShuttingDown", err)
	}
}

// heldFlusher is a windowed data path with nothing to flush: a held
// flush gives its token straight back.
type heldFlusher struct{ w *sim.Window }

func (f heldFlusher) FlushForCancel(context.Context, ResourceID, extent.Extent, extent.SN) error {
	return nil
}

func (f heldFlusher) FlushHeld(context.Context, ResourceID, extent.Extent, extent.SN, time.Time) error {
	f.w.Put()
	return nil
}

func (f heldFlusher) Window(ResourceID) *sim.Window { return f.w }

// TestAllocBudgetQueuedCancel: a cancel that waits in its flush window
// is an entry linked through its handle, and the token handed to it
// starts it on an idle coroutine, so a lock's life — grant, revocation,
// queueing, hand-over, cancel — allocates no more than with no window.
func TestAllocBudgetQueuedCancel(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	life := func(windowed bool) float64 {
		v := sim.NewVClock(1)
		clk := sim.Virtual(v)
		srv := NewServer(SeqDLM(), nil)
		w := sim.NewWindow(clk, 1)
		var fl Flusher = FlusherFunc(func(context.Context, ResourceID, extent.Extent, extent.SN) error { return nil })
		if windowed {
			fl = heldFlusher{w}
		}
		c := NewLockClient(1, SeqDLM(), func(ResourceID) ServerConn { return directConn{srv} }, fl)
		c.SetClock(clk)
		var allocs float64
		v.Run(func() {
			ctx := context.Background()
			round := func() {
				h, err := c.Acquire(ctx, 1, NBW, extent.New(0, 4096))
				if err != nil {
					t.Fatal(err)
				}
				c.Unlock(h)
				if windowed {
					w.Take(ctx) // the window is full: the cancel queues
				}
				c.OnRevoke(1, h.ID())
				if windowed {
					w.Put() // and this token starts it
				}
				if err := c.waitReleased(ctx, h); err != nil {
					t.Fatal(err)
				}
			}
			round()
			clk.Sleep(time.Microsecond) // the first cancel's coroutine is idle
			allocs = testing.AllocsPerRun(100, round)
		})
		return allocs
	}
	if plain, windowed := life(false), life(true); windowed > plain {
		t.Errorf("a lock's life with its cancel queued in the flush window: %.1f allocs, %.1f with no window", windowed, plain)
	}
}
