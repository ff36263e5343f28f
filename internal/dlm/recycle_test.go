package dlm

import (
	"context"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// TestRecycledWaiterPoisoned: a Lock call's waiter goes back to its pool
// once the grant is received, and a -race build poisons it there, so a
// resolution path that still read the waiter after sending its reply
// (rather than the channel it loaded before) would see a resource no
// request names — and the race detector would flag the read.
func TestRecycledWaiterPoisoned(t *testing.T) {
	if !wire.RaceEnabled {
		t.Skip("recycled waiters are poisoned in -race builds")
	}
	s := NewServer(SeqDLM(), NotifierFunc(func(context.Context, Revocation) {}))
	ctx := context.Background()
	a, err := s.Lock(ctx, Request{Resource: 1, Client: 1, Mode: NBW, Range: extent.New(0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan error)
	go func() {
		_, err := s.Lock(ctx, Request{Resource: 1, Client: 2, Mode: NBW, Range: extent.New(0, 10)})
		granted <- err
	}()
	var w *waiter
	waitFor(t, "the second request to queue", func() bool {
		res := s.lookup(1)
		res.mu.Lock()
		defer res.mu.Unlock()
		for _, q := range res.queue {
			if !q.done {
				w = q
			}
		}
		return w != nil
	})
	s.Release(1, a.LockID)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if w.req.Resource != poisonResource || w.done || len(w.ch) != 0 {
		t.Fatalf("recycled waiter: resource %d, done %v, %d replies buffered; want poisoned and empty", w.req.Resource, w.done, len(w.ch))
	}
}
