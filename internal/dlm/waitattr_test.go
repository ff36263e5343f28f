package dlm

import (
	"context"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
)

// TestWaitAttributionEarlyGrant is the regression test for the
// wait-time attribution bug: a waiter granted via early grant — before
// every conflicting lock reached CANCELING server-side release — must
// not fabricate a cancel-wait sample from a zero allCancelAt, and per
// grant the Fig. 17 components must satisfy
//
//	RevocationWait + CancelWait <= GrantWait.
func TestWaitAttributionEarlyGrant(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	// Gate the flusher so the old holder's cancel phase (flush +
	// release) stays open; the second writer can then only get in via
	// early grant against the CANCELING lock.
	gate := make(chan struct{})
	h.flusher.setGate(gate)
	defer close(gate)

	hd1 := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
	_ = hd1
	before := h.srv.Stats.Snapshot()

	hd2 := mustAcquire(t, h.client(2), 1, NBW, extent.New(0, extent.Inf))
	after := h.srv.Stats.Snapshot()
	d := after.Sub(before)

	if d.Grants != 1 {
		t.Fatalf("grants in window = %d, want 1", d.Grants)
	}
	if d.EarlyGrants != 1 {
		t.Fatalf("early grants in window = %d, want 1 (holder still flushing)", d.EarlyGrants)
	}
	if d.GrantWait <= 0 {
		t.Fatalf("grant wait = %v, want > 0", d.GrantWait)
	}
	if d.RevocationWait <= 0 {
		t.Fatalf("revocation wait = %v, want > 0 (conflict had to be revoked)", d.RevocationWait)
	}
	if d.RevocationWait+d.CancelWait > d.GrantWait {
		t.Fatalf("attribution overshoot: revocation %v + cancel %v > grant %v",
			d.RevocationWait, d.CancelWait, d.GrantWait)
	}
	// The early grant never saw a cancel phase: no cancel-wait sample
	// may be recorded, fabricated zeros included.
	if n := h.srv.Stats.CancelWaitHist.Count(); n != 0 {
		t.Fatalf("cancel-wait samples = %d, want 0 for an early grant", n)
	}
	h.client(2).Unlock(hd2)
}

// TestWaitAttributionFullCancel drives the ordinary conflict path —
// revoke, flush, release, grant — and checks both components are
// recorded and still bounded by the total grant wait. It runs seeded on
// the virtual clock: on the wall clock the attribution buckets depend on
// the interleaving.
func TestWaitAttributionFullCancel(t *testing.T) {
	// Early grant off: the waiter must wait out the holder's full
	// cancel (flush + release) phase. Conversion off keeps the cancel
	// path a plain release instead of a downgrade, so the conflict
	// resolves by the lock leaving the table.
	pol := SeqDLM()
	pol.EarlyGrant = false
	pol.Conversion = false
	h := newHarness(t, pol, 2)
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	h.srv.SetClock(clk)
	for _, c := range h.clients {
		c.SetClock(clk)
	}

	v.Run(func() {
		hd1 := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
		// Return the lock to client 1's cache: the cancel path (flush +
		// release) only runs once the handle has no active holds.
		h.client(1).Unlock(hd1)
		before := h.srv.Stats.Snapshot()
		hd2, err := h.client(2).Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
		if err != nil {
			t.Fatal(err)
		}
		after := h.srv.Stats.Snapshot()
		d := after.Sub(before)

		if d.Grants != 1 {
			t.Fatalf("grants in window = %d, want 1", d.Grants)
		}
		if d.RevocationWait+d.CancelWait > d.GrantWait {
			t.Fatalf("attribution overshoot: revocation %v + cancel %v > grant %v",
				d.RevocationWait, d.CancelWait, d.GrantWait)
		}
		if got := h.srv.Stats.CancelWaitHist.Count(); got != 1 {
			t.Fatalf("cancel-wait samples = %d, want 1", got)
		}
		if got := h.srv.Stats.RevocationWaitHist.Count(); got != 1 {
			t.Fatalf("revocation-wait samples = %d, want 1", got)
		}
		// Percentiles come straight off the wait histograms now.
		if p99 := h.srv.Stats.GrantWaitHist.Snapshot().Quantile(0.99); time.Duration(p99) > time.Minute {
			t.Fatalf("implausible grant-wait p99: %v", time.Duration(p99))
		}
		h.client(2).Unlock(hd2)
	})
}
