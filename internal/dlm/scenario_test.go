package dlm

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
)

// TestExpansionCappedByQueuedRequest: a grant must not expand over a
// queued conflicting request from another client, or it would be
// revoked the moment it is granted.
func TestExpansionCappedByQueuedRequest(t *testing.T) {
	h := newHarness(t, SeqDLM(), 3)
	gate := make(chan struct{})
	h.flusher.setGate(gate)

	// Client 1 parks a lock at [0, EOF) and is slow to flush, so the
	// queue builds: client 2 wants [0, 4K), client 3 wants [1M, 1M+4K).
	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
	h.client(1).Unlock(a)

	revGate := make(chan struct{})
	h.setRevokeGate(revGate)
	type res struct {
		hd  *Handle
		cli int
	}
	grants := make(chan res, 2)
	go func() {
		hd, err := h.client(2).Acquire(context.Background(), 1, NBW, extent.New(0, 4096))
		if err == nil {
			grants <- res{hd, 2}
		}
	}()
	waitFor(t, "first waiter queued", func() bool { return h.srv.QueueLen(1) == 1 })
	go func() {
		hd, err := h.client(3).Acquire(context.Background(), 1, NBW, extent.New(1<<20, 1<<20+4096))
		if err == nil {
			grants <- res{hd, 3}
		}
	}()
	waitFor(t, "both waiters queued", func() bool { return h.srv.QueueLen(1) == 2 })
	close(revGate)

	got := map[int]*Handle{}
	for i := 0; i < 2; i++ {
		r := <-grants
		got[r.cli] = r.hd
	}
	close(gate)
	// Client 2's grant must stop at or before client 3's request start.
	if got[2].Range().End > 1<<20 {
		t.Fatalf("client 2's lock %v expanded over client 3's queued request", got[2].Range())
	}
	h.client(2).Unlock(got[2])
	h.client(3).Unlock(got[3])
}

func TestAcquireExtentsValidation(t *testing.T) {
	h := newHarness(t, Datatype(), 1)
	// Request whose extent set exceeds the declared range is rejected by
	// the server (defence against malformed clients).
	_, err := h.srv.Lock(context.Background(), Request{
		Resource: 1,
		Client:   1,
		Mode:     PW,
		Range:    extent.New(0, 10),
		Extents:  extent.NewSet(extent.New(0, 5), extent.New(50, 60)),
	})
	if err == nil {
		t.Fatal("extent set exceeding range accepted")
	}
}

// TestSpanningWritersNoDeadlock: many clients repeatedly take BW locks
// on two resources in ascending order with random timing — ordered
// acquisition must be deadlock-free and every round completes.
func TestSpanningWritersNoDeadlock(t *testing.T) {
	h := newHarness(t, SeqDLM(), 6)
	var wg sync.WaitGroup
	for i := 1; i <= 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			c := h.client(i)
			for k := 0; k < 20; k++ {
				h0, err := c.Acquire(context.Background(), 1, BW, extent.New(0, extent.Inf))
				if err != nil {
					t.Errorf("acquire r1: %v", err)
					return
				}
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				h1, err := c.Acquire(context.Background(), 2, BW, extent.New(0, extent.Inf))
				if err != nil {
					t.Errorf("acquire r2: %v", err)
					c.Unlock(h0)
					return
				}
				c.Unlock(h1)
				c.Unlock(h0)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("spanning writers deadlocked")
	}
	for i := 1; i <= 6; i++ {
		h.client(i).ReleaseAll(context.Background())
	}
}

// TestSameClientConcurrentAcquires: multiple goroutines of one client
// hammering the same resource must serialize safely through the
// per-resource acquire path and the upgrade machinery.
func TestSameClientConcurrentAcquires(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				mode := NBW
				if (g+k)%3 == 0 {
					mode = PR
				}
				hd, err := c.Acquire(context.Background(), 1, mode, extent.Span(int64(k*100), 50))
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				c.Unlock(hd)
			}
		}(g)
	}
	wg.Wait()
	c.ReleaseAll(context.Background())
	waitFor(t, "drain", func() bool { return h.srv.GrantedCount(1) == 0 })
}

// TestRevocationStormDuringUpgrades: interleave cross-client revocations
// with same-client upgrades; no grant may be lost and the server drains.
// Whether a given storm contains an upgrade (a client's NBW request
// finding its own PR still cached) is up to the wall-clock interleaving,
// so the storm repeats in bounded batches until one has been seen.
func TestRevocationStormDuringUpgrades(t *testing.T) {
	h := newHarness(t, SeqDLM(), 4)
	const maxBatches = 40
	for batch := 1; ; batch++ {
		var wg sync.WaitGroup
		for i := 1; i <= 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := h.client(i)
				for k := 0; k < 25; k++ {
					w, err := c.Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
					if err != nil {
						t.Errorf("w: %v", err)
						return
					}
					c.Unlock(w)
					r, err := c.Acquire(context.Background(), 1, PR, extent.New(0, 4096))
					if err != nil {
						t.Errorf("r: %v", err)
						return
					}
					c.Unlock(r)
				}
			}(i)
		}
		wg.Wait()
		if err := h.srv.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		st := h.srv.Stats.Snapshot()
		if t.Failed() || (st.Grants > 0 && st.Upgrades > 0) {
			break
		}
		if batch == maxBatches {
			t.Fatalf("%d storms exercised no upgrade: %+v", maxBatches, st)
		}
	}
	for i := 1; i <= 4; i++ {
		h.client(i).ReleaseAll(context.Background())
	}
	waitFor(t, "drain", func() bool { return h.srv.GrantedCount(1) == 0 })
}

// TestDatatypeManyDisjointWriters: datatype locking's selling point is
// disjoint non-contiguous sets proceeding fully in parallel; make sure
// nothing serializes or wedges them.
func TestDatatypeManyDisjointWriters(t *testing.T) {
	h := newHarness(t, Datatype(), 8)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := h.client(i)
			for k := 0; k < 15; k++ {
				// Interleaved but never overlapping extents per client.
				set := extent.NewSet(
					extent.Span(int64(k*8000+i*1000), 500),
					extent.Span(int64(k*8000+i*1000+500), 200),
				)
				hd, err := c.AcquireExtents(context.Background(), 1, NBW, set)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				c.Unlock(hd)
			}
		}(i)
	}
	wg.Wait()
	if h.srv.Stats.Revocations.Load() != 0 {
		t.Fatalf("disjoint datatype sets caused %d revocations", h.srv.Stats.Revocations.Load())
	}
	_ = start
	waitFor(t, "drain", func() bool { return h.srv.GrantedCount(1) == 0 })
}

// TestUpgradeConflictsOverUnionRange is the regression test for a
// safety bug found by CheckInvariants under stress: the upgraded lock
// covers the union of the request and the absorbed locks, so a PW
// upgrade must reclaim another client's PR that overlaps only the
// ABSORBED range — even when the triggering request never touches it.
func TestUpgradeConflictsOverUnionRange(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	// C0 ends up with PR [0, 5000) (capped by C1's PR below); C1 holds
	// PR [4000, 4500) overlapping it — PR/PR coexist fine.
	b := mustAcquire(t, h.client(2), 1, PR, extent.New(4000, 4500))
	h.client(2).Unlock(b)
	a := mustAcquire(t, h.client(1), 1, PR, extent.New(0, 100))
	h.client(1).Unlock(a)
	if !a.Range().Overlaps(b.Range()) {
		t.Fatalf("setup failed: PRs do not overlap (%v vs %v)", a.Range(), b.Range())
	}

	// C0 writes [0, 50): same-client conflict with its own PR upgrades
	// the request to PW over the union [0, 5000) — which overlaps C1's
	// GRANTED PR. C1 must be revoked before the PW is granted.
	w := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, 50))
	if w.Mode() != PW {
		t.Fatalf("mode = %v, want PW", w.Mode())
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("upgrade violated the LCM: %v", err)
	}
	if h.client(2).Stats.Revocations.Load() == 0 {
		t.Fatal("C1's PR overlapping only the absorbed range was not reclaimed")
	}
	h.client(1).Unlock(w)
}
