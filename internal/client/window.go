package client

import (
	"context"
	"slices"
	"sync"
	"time"

	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// flushWindow bounds the flush RPCs a client has in flight to one data
// server at Config.FlushWindow, across all of its flushes at once: every
// cancel's, every Fsync's and the daemon's. sendChunks bounds only its
// own RPCs, and on an N-1 strided run a client's pre-revoked locks put
// dozens of cancel flushes on one server at once, each holding a handler
// there while the device works through the queue. A flush over the
// bound parks on a channel of its own, and a finishing RPC hands its
// slot to the oldest: parked on one shared channel, every release would
// wake all of them for one to win.
type flushWindow struct {
	mu      sync.Mutex
	free    int             // slots no RPC holds; > 0 only with no waiters
	waiters []chan struct{} // oldest first
}

// acquire takes a slot, waiting for one unless ctx fires first.
func (w *flushWindow) acquire(ctx context.Context, clk sim.Clock) error {
	w.mu.Lock()
	if w.free > 0 {
		w.free--
		w.mu.Unlock()
		return nil
	}
	ch := make(chan struct{}, 1)
	w.waiters = append(w.waiters, ch)
	w.mu.Unlock()
	_, _, err := sim.Recv(ctx, clk, ch, nil, time.Time{})
	if err == nil {
		return nil
	}
	w.mu.Lock()
	i := slices.Index(w.waiters, ch)
	if i >= 0 {
		w.waiters = slices.Delete(w.waiters, i, i+1)
	}
	w.mu.Unlock()
	if i < 0 {
		// A release handed this flush its slot as ctx fired: pass it on.
		w.release(clk)
	}
	return wire.FromContext(err)
}

// release gives a slot back: to the oldest waiter, or to the free count.
func (w *flushWindow) release(clk sim.Clock) {
	w.mu.Lock()
	if len(w.waiters) == 0 {
		w.free++
		w.mu.Unlock()
		return
	}
	ch := w.waiters[0]
	w.waiters = w.waiters[1:]
	w.mu.Unlock()
	sim.Send(clk, ch, struct{}{})
}
