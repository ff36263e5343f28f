package client

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
)

// TestFlushWindowBoundsAndOrder: on the virtual clock, eight flushes
// that each hold a slot of a two-slot window for a millisecond run two
// at a time, in the order they asked.
func TestFlushWindowBoundsAndOrder(t *testing.T) {
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	w := &flushWindow{free: 2}
	var order []int
	inflight, peak := 0, 0
	var took time.Duration
	v.Run(func() {
		start := clk.Now()
		grp := sim.NewGroup(clk)
		for i := range 8 {
			grp.Go(func() {
				if err := w.acquire(context.Background(), clk); err != nil {
					t.Error(err)
					return
				}
				order = append(order, i)
				inflight++
				peak = max(peak, inflight)
				clk.Sleep(time.Millisecond)
				inflight--
				w.release(clk)
			})
			clk.Sleep(time.Microsecond)
		}
		grp.Wait()
		took = clk.Since(start)
	})
	if peak != 2 {
		t.Errorf("%d flushes in flight at once, want 2", peak)
	}
	if !slices.IsSorted(order) || len(order) != 8 {
		t.Errorf("slots taken in order %v, want arrival order", order)
	}
	if took < 4*time.Millisecond || took > 5*time.Millisecond {
		t.Errorf("eight 1 ms flushes through two slots took %v, want about 4 ms", took)
	}
	if w.free != 2 || len(w.waiters) != 0 {
		t.Errorf("window left with %d free slots and %d waiters, want 2 and 0", w.free, len(w.waiters))
	}
}

// TestFlushWindowWaiterCanceled: a flush whose ctx fires while it waits
// leaves the queue without a slot, and the next release frees its slot.
func TestFlushWindowWaiterCanceled(t *testing.T) {
	w := &flushWindow{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := w.acquire(ctx, sim.Clock{}); err == nil {
		t.Fatal("acquire of a full window returned a slot")
	}
	if len(w.waiters) != 0 {
		t.Fatalf("%d waiters left queued", len(w.waiters))
	}
	w.release(sim.Clock{})
	if w.free != 1 {
		t.Fatalf("free = %d after a release, want 1", w.free)
	}
}

// TestFlushCollectsInItsSlot: a flush whose server's window is full
// collects nothing until it gets a slot, so a waiting flush holds no
// frames; once it has one it flushes everything.
func TestFlushCollectsInItsSlot(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{FlushWindow: 1})
	const rid, n = 7, 8192
	cl.pc.Write(rid, 0, bytes.Repeat([]byte{1}, n), 1)
	win := &cl.windows[0]
	if err := win.acquire(context.Background(), sim.Clock{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- cl.flushGroup(context.Background(), []uint64{rid}, extent.New(0, extent.Inf), ^extent.SN(0))
	}()
	for waiting := 0; waiting == 0; {
		time.Sleep(time.Millisecond)
		win.mu.Lock()
		waiting = len(win.waiters)
		win.mu.Unlock()
	}
	if got := cl.pc.DirtyBytes(); got != n {
		t.Fatalf("%d dirty bytes while the flush waits for a slot, want %d", got, n)
	}
	win.release(sim.Clock{})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := cl.pc.DirtyBytes(); got != 0 || win.free != 1 {
		t.Fatalf("after the flush: %d dirty bytes, %d free slots; want 0 and 1", got, win.free)
	}
}
