package dlm

import (
	"context"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
	"ccpfs/internal/wire"
)

// newBareEngine builds an engine with a self-acking notifier (its
// revocations have no live client to go to in these tests).
func newBareEngine(policy Policy) *Server {
	s := NewServer(policy, nil)
	s.SetNotifier(NotifierFunc(func(_ context.Context, rv Revocation) {
		s.RevokeAck(rv.Resource, rv.Lock)
	}))
	return s
}

// ridInSlot returns a resource ID (> after) hashing into the slot.
func ridInSlot(t *testing.T, sl partition.Slot, after uint64) ResourceID {
	t.Helper()
	for rid := after + 1; rid < after+1_000_000; rid++ {
		if partition.SlotOf(rid) == sl {
			return ResourceID(rid)
		}
	}
	t.Fatalf("no resource in slot %d", sl)
	return 0
}

// TestExportSlotsFilters: the slot-filtered export must report exactly
// the locks whose resources hash into the requested slots — the
// partial-replay contract a takeover successor depends on (an
// over-report would double-master locks still served by live masters).
func TestExportSlotsFilters(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)

	resA := ridInSlot(t, 3, 0)
	resB := ridInSlot(t, 3, uint64(resA))
	resC := ridInSlot(t, 9, 0)
	a := mustAcquire(t, c, resA, NBW, extent.New(0, 100))
	b := mustAcquire(t, c, resB, PR, extent.New(0, 50))
	cc := mustAcquire(t, c, resC, NBW, extent.New(0, 10))

	recs := c.ExportSlots([]partition.Slot{3})
	if len(recs) != 2 {
		t.Fatalf("slot 3 export = %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if partition.SlotOf(uint64(r.Resource)) != 3 {
			t.Fatalf("record %+v leaked out of slot 3", r)
		}
	}
	if got := c.ExportSlots([]partition.Slot{9}); len(got) != 1 || got[0].Resource != resC {
		t.Fatalf("slot 9 export = %+v", got)
	}
	if got := c.ExportSlots(nil); len(got) != 0 {
		t.Fatalf("nil slot export reported %d records", len(got))
	}
	if got := c.ExportSlots([]partition.Slot{-1, partition.NumSlots, 40}); len(got) != 0 {
		t.Fatalf("out-of-range/empty slots reported %d records", len(got))
	}
	c.Unlock(a)
	c.Unlock(b)
	c.Unlock(cc)
}

// TestAdoptSlotsPartialReplay is the regression test for slot-filtered
// takeover: a successor adopting a subset of a dead master's slots must
// restore only that subset's locks — even when the replayed records
// (from a client that talked to the dead master about many slots)
// include resources outside the adopted set — and must refuse requests
// for everything it did not adopt.
func TestAdoptSlotsPartialReplay(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	c1 := h.client(1)

	resIn := ridInSlot(t, 5, 0)
	resOut := ridInSlot(t, 6, 0)
	in := mustAcquire(t, c1, resIn, NBW, extent.New(0, 4096))
	out := mustAcquire(t, c1, resOut, NBW, extent.New(0, 4096))
	inSN := in.SN()

	// The "successor": a fresh engine adopting only slot 5, fed the
	// client's full export (slots 5 AND 6) — the concurrent-takeover
	// shape where another successor owns slot 6.
	succ := newBareEngine(SeqDLM())
	records := c1.Export(nil)
	if len(records) != 2 {
		t.Fatalf("exported %d records, want 2", len(records))
	}
	if err := succ.Restore(LockState{Epoch: 7, Slots: []partition.Slot{5}, Resources: ByResource(records)}); err != nil {
		t.Fatal(err)
	}

	if got := succ.GrantedCount(resIn); got != 1 {
		t.Fatalf("adopted slot restored %d locks, want 1", got)
	}
	if got := succ.GrantedCount(resOut); got != 0 {
		t.Fatalf("non-adopted slot restored %d locks, want 0", got)
	}
	if err := succ.CheckMaster(resIn); err != nil {
		t.Fatalf("adopted slot refused: %v", err)
	}
	if err := succ.CheckMaster(resOut); err != wire.ErrNotOwner {
		t.Fatalf("non-adopted slot served: %v", err)
	}
	if succ.PartitionEpoch() != 7 {
		t.Fatalf("epoch = %d, want 7", succ.PartitionEpoch())
	}

	// The restored sequencer resumes above the replayed SN.
	g, err := succ.Lock(context.Background(), Request{
		Resource: resIn, Client: 2, Mode: NBW, Range: extent.New(100000, 100001),
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.SN <= inSN {
		t.Fatalf("post-adopt SN %d not above replayed SN %d", g.SN, inSN)
	}
	c1.Unlock(in)
	c1.Unlock(out)
}

// TestFreezeInstallTransfersSequencer moves a slot between two engines
// and checks the migration invariants at the engine level: the source
// stops mastering the slot, the destination resumes each resource's
// sequencer and grant count exactly, and a double-install is refused.
func TestFreezeInstallTransfersSequencer(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)

	res := ridInSlot(t, 11, 0)
	hd := mustAcquire(t, c, res, NBW, extent.New(0, 4096))
	sn := hd.SN()
	h.srv.SetSlots(1, []partition.Slot{11})

	exp, err := h.srv.FreezeExportSlot(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.srv.CheckMaster(res); err != wire.ErrNotOwner {
		t.Fatalf("source still masters frozen slot: %v", err)
	}
	if len(exp.Resources) != 1 || exp.Resources[0].Resource != res {
		t.Fatalf("export = %+v", exp.Resources)
	}
	if exp.Resources[0].NextSN != sn+1 {
		t.Fatalf("exported NextSN %d, want %d", exp.Resources[0].NextSN, sn+1)
	}

	dst := newBareEngine(SeqDLM())
	exp.Epoch = 2
	if err := dst.Restore(exp); err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckMaster(res); err != nil {
		t.Fatalf("destination refuses installed slot: %v", err)
	}
	if got := dst.GrantedCount(res); got != 1 {
		t.Fatalf("installed %d locks, want 1", got)
	}
	// The next write SN continues the source's sequence exactly.
	g, err := dst.Lock(context.Background(), Request{
		Resource: res, Client: 2, Mode: NBW, Range: extent.New(100000, 100001),
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.SN != sn+1 {
		t.Fatalf("post-install SN %d, want %d", g.SN, sn+1)
	}
	// Installing on top of live state must be refused, not merged.
	exp.Epoch = 3
	if err := dst.Restore(exp); err == nil {
		t.Fatal("double install accepted")
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeRedirectsWaiters: queued waiters on a frozen slot fail with
// ErrNotOwner (the redirect signal) instead of hanging — the migration
// orchestrator does not transfer wait queues.
func TestFreezeRedirectsWaiters(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	c1 := h.client(1)

	res := ridInSlot(t, 20, 0)
	hd := mustAcquire(t, c1, res, NBW, extent.New(0, 4096))
	h.srv.SetSlots(1, []partition.Slot{20})
	gate := make(chan struct{})
	h.setRevokeGate(gate) // keep the conflicting request queued

	errCh := make(chan error, 1)
	go func() {
		_, err := h.srv.Lock(context.Background(), Request{
			Resource: res, Client: 2, Mode: NBW, Range: extent.New(0, 4096),
		})
		errCh <- err
	}()
	waitFor(t, "waiter queued", func() bool { return h.srv.QueueLen(res) == 1 })

	if _, err := h.srv.FreezeExportSlot(20); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; wire.CodeOf(err) != wire.CodeNotOwner {
		t.Fatalf("frozen waiter got %v, want ErrNotOwner", err)
	}
	close(gate)
	h.setRevokeGate(nil)
	c1.Unlock(hd)
}

// TestSetSlotsDropPurgesWaiters: a slot view that drops a slot (the
// lease daemon's answer to a lost lease) purges the slot's resources —
// queued waiters fail with ErrNotOwner, so their clients re-route, and
// the engine forgets the resource's granted locks.
func TestSetSlotsDropPurgesWaiters(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	c1 := h.client(1)

	res := ridInSlot(t, 21, 0)
	kept := ridInSlot(t, 22, 0)
	h.srv.SetSlots(1, []partition.Slot{21, 22})
	hd := mustAcquire(t, c1, res, NBW, extent.New(0, 4096))
	hk := mustAcquire(t, c1, kept, NBW, extent.New(0, 4096))
	gate := make(chan struct{})
	h.setRevokeGate(gate) // keep the conflicting request queued

	errCh := make(chan error, 1)
	go func() {
		_, err := h.srv.Lock(context.Background(), Request{
			Resource: res, Client: 2, Mode: NBW, Range: extent.New(0, 4096),
		})
		errCh <- err
	}()
	waitFor(t, "waiter queued", func() bool { return h.srv.QueueLen(res) == 1 })

	h.srv.SetSlots(2, []partition.Slot{22})
	if err := <-errCh; wire.CodeOf(err) != wire.CodeNotOwner {
		t.Fatalf("waiter on a dropped slot got %v, want ErrNotOwner", err)
	}
	if got := h.srv.GrantedCount(res); got != 0 {
		t.Fatalf("GrantedCount on a dropped slot = %d, want 0", got)
	}
	if got := h.srv.GrantedCount(kept); got != 1 {
		t.Fatalf("GrantedCount on a kept slot = %d, want 1", got)
	}
	if got := h.srv.Stats.SlotsOwned.Load(); got != 1 {
		t.Fatalf("SlotsOwned = %d, want 1", got)
	}
	close(gate)
	h.setRevokeGate(nil)
	c1.Unlock(hd)
	c1.Unlock(hk)
}
