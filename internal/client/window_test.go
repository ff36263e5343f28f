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
// that each hold a token of a two-token window for a millisecond run
// two at a time, in the order they asked.
func TestFlushWindowBoundsAndOrder(t *testing.T) {
	v := sim.NewVClock(1)
	c := &Client{clk: sim.Virtual(v)}
	win := newWindow(2)
	var order []int
	inflight, peak := 0, 0
	var took time.Duration
	v.Run(func() {
		start := c.clk.Now()
		grp := sim.NewGroup(c.clk)
		for i := range 8 {
			grp.Go(func() {
				if err := c.takeSlot(context.Background(), win); err != nil {
					t.Error(err)
					return
				}
				order = append(order, i)
				inflight++
				peak = max(peak, inflight)
				c.clk.Sleep(time.Millisecond)
				inflight--
				sim.Send(c.clk, win, struct{}{})
			})
			c.clk.Sleep(time.Microsecond)
		}
		grp.Wait()
		took = c.clk.Since(start)
	})
	if peak != 2 {
		t.Errorf("%d flushes in flight at once, want 2", peak)
	}
	if !slices.IsSorted(order) || len(order) != 8 {
		t.Errorf("tokens taken in order %v, want arrival order", order)
	}
	if took < 4*time.Millisecond || took > 5*time.Millisecond {
		t.Errorf("eight 1 ms flushes through two tokens took %v, want about 4 ms", took)
	}
	if len(win) != 2 {
		t.Errorf("window left with %d tokens, want 2", len(win))
	}
}

// TestFlushWindowWaiterCanceled: a flush whose ctx fires while it waits
// returns an error and takes no token.
func TestFlushWindowWaiterCanceled(t *testing.T) {
	c := &Client{}
	win := newWindow(1)
	<-win
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.takeSlot(ctx, win); err == nil {
		t.Fatal("takeSlot on an empty window returned a token")
	}
	sim.Send(c.clk, win, struct{}{})
	if err := c.takeSlot(context.Background(), win); err != nil || len(win) != 0 {
		t.Fatalf("after a token came back: err %v, %d tokens left; want nil and 0", err, len(win))
	}
}

// TestFlushCollectsInItsSlot: on the virtual clock, a flush whose
// server's window is empty collects nothing until it gets a token, so a
// waiting flush holds no frames; once it has one it flushes everything.
func TestFlushCollectsInItsSlot(t *testing.T) {
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	v.Run(func() {
		cl := newHarnessOn(t, dlm.SeqDLM(), 1, hw).client(Config{})
		cl.windows[0] = newWindow(1)
		win := cl.windows[0]
		const rid, n = 7, 8192
		cl.pc.Write(rid, 0, bytes.Repeat([]byte{1}, n), 1)
		<-win
		var err error
		grp := sim.NewGroup(cl.clk)
		grp.Go(func() {
			err = cl.flushGroup(context.Background(), []uint64{rid}, extent.New(0, extent.Inf), ^extent.SN(0))
		})
		cl.clk.Sleep(time.Millisecond) // the flush has parked on the empty window
		if got := cl.pc.DirtyBytes(); got != n {
			t.Fatalf("%d dirty bytes while the flush waits for a token, want %d", got, n)
		}
		sim.Send(cl.clk, win, struct{}{})
		grp.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got := cl.pc.DirtyBytes(); got != 0 || len(win) != 1 {
			t.Fatalf("after the flush: %d dirty bytes, %d tokens; want 0 and 1", got, len(win))
		}
	})
}
