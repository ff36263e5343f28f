package client

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"sync"
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
	clk := sim.Virtual(v)
	win := sim.NewWindow(clk, 2)
	var order []int
	inflight, peak := 0, 0
	var took time.Duration
	v.Run(func() {
		start := clk.Now()
		grp := sim.NewGroup(clk)
		for i := range 8 {
			grp.Go(func() {
				if err := win.Take(context.Background()); err != nil {
					t.Error(err)
					return
				}
				order = append(order, i)
				inflight++
				peak = max(peak, inflight)
				clk.Sleep(time.Millisecond)
				inflight--
				win.Put()
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
		t.Errorf("tokens taken in order %v, want arrival order", order)
	}
	if took < 4*time.Millisecond || took > 5*time.Millisecond {
		t.Errorf("eight 1 ms flushes through two tokens took %v, want about 4 ms", took)
	}
	if win.Free() != 2 {
		t.Errorf("window left with %d tokens, want 2", win.Free())
	}
}

// TestFlushWindowWaiterCanceled: a flush whose ctx fires while it waits
// returns an error and takes no token.
func TestFlushWindowWaiterCanceled(t *testing.T) {
	win := sim.NewWindow(sim.Clock{}, 1)
	if err := win.Take(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := win.Take(ctx); err == nil {
		t.Fatal("Take on an empty window returned a token")
	}
	win.Put()
	if err := win.Take(context.Background()); err != nil || win.Free() != 0 {
		t.Fatalf("after a token came back: err %v, %d tokens left; want nil and 0", err, win.Free())
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
		cl.windows[0] = sim.NewWindow(cl.clk, 1)
		win := cl.windows[0]
		const rid, n = 7, 8192
		cl.pc.Write(rid, 0, bytes.Repeat([]byte{1}, n), 1)
		if err := win.Take(context.Background()); err != nil {
			t.Fatal(err)
		}
		var err error
		grp := sim.NewGroup(cl.clk)
		grp.Go(func() {
			err = cl.flushGroup(context.Background(), []uint64{rid}, extent.New(0, extent.Inf), ^extent.SN(0), time.Time{})
		})
		cl.clk.Sleep(time.Millisecond) // the flush has parked on the empty window
		if got := cl.pc.DirtyBytes(); got != n {
			t.Fatalf("%d dirty bytes while the flush waits for a token, want %d", got, n)
		}
		win.Put()
		grp.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got := cl.pc.DirtyBytes(); got != 0 || win.Free() != 1 {
			t.Fatalf("after the flush: %d dirty bytes, %d tokens; want 0 and 1", got, win.Free())
		}
	})
}

// flushLog is a client's data path that records the resource of every
// cancel flush as it starts.
type flushLog struct {
	*dataPath
	mu   sync.Mutex
	ress []dlm.ResourceID
}

func (l *flushLog) record(res dlm.ResourceID) {
	l.mu.Lock()
	l.ress = append(l.ress, res)
	l.mu.Unlock()
}

func (l *flushLog) FlushForCancel(ctx context.Context, res dlm.ResourceID, rng extent.Extent, sn extent.SN) error {
	l.record(res)
	return l.dataPath.FlushForCancel(ctx, res, rng, sn)
}

func (l *flushLog) FlushHeld(ctx context.Context, res dlm.ResourceID, rng extent.Extent, sn extent.SN, since time.Time) error {
	l.record(res)
	return l.dataPath.FlushHeld(ctx, res, rng, sn, since)
}

func (l *flushLog) order() []dlm.ResourceID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ress)
}

// logFlushes gives cl a fresh lock client whose cancel flushes are
// recorded in the returned log. Call it before cl takes any lock.
func logFlushes(cl *Client) *flushLog {
	l := &flushLog{dataPath: (*dataPath)(cl)}
	cl.lc = dlm.NewLockClient(cl.cfg.ID, cl.cfg.Policy, cl.route, l)
	cl.lc.SetClock(cl.clk)
	return l
}

// cachedLocks creates a file of n 4 KiB stripes on cl and returns each
// stripe's cached, idle write lock; dirty says whether a page was
// written under it first.
func cachedLocks(t *testing.T, cl *Client, path string, n int, dirty bool) []*dlm.Handle {
	t.Helper()
	f, err := cl.Create(path, 4096, uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	var hs []*dlm.Handle
	for st := range n {
		if dirty {
			if _, err := f.WriteAt(bytes.Repeat([]byte{byte(st)}, 4096), int64(st)*4096); err != nil {
				t.Fatal(err)
			}
		}
		h, err := cl.lc.Acquire(context.Background(), f.Resource(uint32(st)), dlm.NBW, extent.New(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		cl.lc.Unlock(h)
		hs = append(hs, h)
	}
	return hs
}

// takeAll takes every token of w.
func takeAll(t *testing.T, w *sim.Window) {
	t.Helper()
	for range w.Cap() {
		if err := w.Take(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// waitReleased waits, polling on clk, until every lock of hs has left
// the client, failing the test after about a second.
func waitReleased(t *testing.T, clk sim.Clock, hs ...*dlm.Handle) {
	t.Helper()
	for _, h := range hs {
		for i := 0; ; i++ {
			select {
			case <-h.Released():
			default:
				if i == 1000 {
					t.Fatalf("lock %d of resource %d was never released", h.ID(), h.Resource())
				}
				clk.Sleep(time.Millisecond)
				continue
			}
			break
		}
	}
}

// TestQueuedCancelsHoldNoGoroutine: 64 cancels revoked at once on one
// client, whose one data server's window of four tokens is full, wait
// in the window's queue: the goroutine count rises by at most the
// window, not by one per cancel. Once the tokens come back every cancel
// flushes once; on the virtual clock they flush in revocation order (on
// the wall clock a started cancel's goroutine may run late).
func TestQueuedCancelsHoldNoGoroutine(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		v := sim.NewVClock(1)
		hw := sim.Fast()
		hw.Clock = sim.Virtual(v)
		v.Run(func() { queuedCancels(t, hw, true) })
	})
	t.Run("wall", func(t *testing.T) { queuedCancels(t, sim.Fast(), false) })
}

func queuedCancels(t *testing.T, hw sim.Hardware, inOrder bool) {
	cl := newHarnessOn(t, dlm.SeqDLM(), 1, hw).client(Config{})
	log := logFlushes(cl)
	hs := cachedLocks(t, cl, "/queued", 64, true)
	win := cl.windows[0]
	takeAll(t, win)
	before := runtime.NumGoroutine()
	for _, h := range hs {
		cl.lc.OnRevoke(h.Resource(), h.ID())
	}
	cl.clk.Sleep(time.Millisecond) // every cancel has started or queued
	if rise := runtime.NumGoroutine() - before; rise > flushWindow+2 {
		t.Errorf("64 cancels waiting for a full window of %d added %d goroutines", flushWindow, rise)
	}
	for range win.Cap() {
		win.Put()
	}
	waitReleased(t, cl.clk, hs...)
	got, want := log.order(), make([]dlm.ResourceID, len(hs))
	for i, h := range hs {
		want[i] = h.Resource()
	}
	if !inOrder {
		slices.Sort(got)
	}
	if !slices.Equal(got, want) {
		t.Errorf("cancels flushed %v, want %v", got, want)
	}
	if cl.pc.DirtyBytes() != 0 || win.Free() != win.Cap() {
		t.Fatalf("after the cancels: %d dirty bytes, %d of %d tokens free", cl.pc.DirtyBytes(), win.Free(), win.Cap())
	}
}

// TestQueuedCancelBehindEmptyFlushAndTransfer: a queued cancel whose
// flush finds nothing dirty hands its token to the next one, and so
// does one that became a stamped transfer while it waited: with one
// token free, the dirty cancel queued behind both still runs.
func TestQueuedCancelBehindEmptyFlushAndTransfer(t *testing.T) {
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	v.Run(func() {
		cl := newHarnessOn(t, dlm.SeqDLM(), 1, hw).client(Config{})
		empty := cachedLocks(t, cl, "/empty", 1, false)[0]
		dirty := cachedLocks(t, cl, "/dirty", 2, true)
		stamped, last := dirty[0], dirty[1]
		win := cl.windows[0]
		takeAll(t, win)
		defer func() { // the test's three tokens, so that a failed run closes
			for range win.Cap() - 1 {
				win.Put()
			}
		}()
		for _, h := range []*dlm.Handle{empty, stamped, last} {
			cl.lc.OnRevoke(h.Resource(), h.ID())
		}
		// No peer transport: the transfer falls back to a release, after
		// a flush that takes a token of its own.
		cl.lc.OnRevokeStamped(stamped.Resource(), stamped.ID(), &dlm.Stamp{Mode: dlm.NBW, MustFlush: true,
			Leases: []dlm.Lease{{Owner: 99, LockID: 1 << 40, SN: 1}}})
		win.Put()
		waitReleased(t, cl.clk, empty, stamped, last)
		if cl.pc.DirtyBytes() != 0 || win.Free() != 1 {
			t.Fatalf("after the cancels: %d dirty bytes, %d tokens free; want 0 and 1", cl.pc.DirtyBytes(), win.Free())
		}
	})
}

// TestShutdownStartsQueuedCancels: a shutdown whose ctx has fired
// returns while the client's cancels wait in a full window, and closing
// the client starts them: each ends, its flush failing, instead of
// waiting for a token nobody gives back.
func TestShutdownStartsQueuedCancels(t *testing.T) {
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	v.Run(func() {
		cl := newHarnessOn(t, dlm.SeqDLM(), 1, hw).client(Config{})
		hs := cachedLocks(t, cl, "/shut", 8, true)
		takeAll(t, cl.windows[0])
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := cl.Shutdown(ctx); err == nil {
			t.Error("shutdown with a fired ctx and a full window reported success")
		}
		waitReleased(t, cl.clk, hs...)
	})
}
