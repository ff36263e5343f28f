package dlm

import (
	"context"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
	"ccpfs/internal/wire"
)

// replayed is the restore of client-replayed records after a full
// crash: no slots, no floor.
func replayed(records ...LockRecord) LockState {
	return LockState{Resources: ByResource(records)}
}

func TestExportReportsHeldLocks(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	a := mustAcquire(t, c, 1, NBW, extent.New(0, 100))
	b := mustAcquire(t, c, 2, PR, extent.New(0, 50))

	recs := c.Export(nil)
	if len(recs) != 2 {
		t.Fatalf("exported %d records, want 2", len(recs))
	}
	recs = c.Export(func(res ResourceID) bool { return res == 1 })
	if len(recs) != 1 || recs[0].Resource != 1 || recs[0].Mode != NBW || recs[0].SN != a.SN() {
		t.Fatalf("filtered export = %+v", recs)
	}
	c.Unlock(a)
	c.Unlock(b)
}

// TestRestoreAfterCrash is the §IV-C2 flow: the engine loses all state,
// clients re-report their locks, and the restored engine must (a) still
// conflict correctly against the restored locks, (b) resume the
// sequencer above every restored SN, and (c) accept releases of the
// restored locks.
func TestRestoreAfterCrash(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	c1, c2 := h.client(1), h.client(2)
	a := mustAcquire(t, c1, 1, NBW, extent.New(0, extent.Inf))
	preSN := a.SN()

	// Crash: the engine forgets everything; the client still holds a.
	h.srv.Reset()
	if h.srv.GrantedCount(1) != 0 {
		t.Fatal("Reset left state")
	}

	// Gather + restore.
	if err := h.srv.Restore(replayed(c1.Export(nil)...)); err != nil {
		t.Fatal(err)
	}
	if h.srv.GrantedCount(1) != 1 {
		t.Fatalf("restored %d locks, want 1", h.srv.GrantedCount(1))
	}

	// (a) A conflicting request must revoke the restored lock and then
	// be granted — the full conflict machinery works on restored state.
	done := make(chan *Handle, 1)
	go func() {
		hd, err := c2.Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
		if err == nil {
			done <- hd
		}
	}()
	var b *Handle
	select {
	case b = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request against restored lock never granted")
	}
	// (b) The sequencer resumed above the restored SN.
	if b.SN() <= preSN {
		t.Fatalf("post-recovery SN %d not above restored SN %d", b.SN(), preSN)
	}
	c2.Unlock(b)

	// (c) The original holder's release drains cleanly.
	c1.Unlock(a)
	c1.ReleaseAll(context.Background())
	c2.ReleaseAll(context.Background())
	waitFor(t, "drain", func() bool { return h.srv.GrantedCount(1) == 0 })
}

func TestRestoreValidation(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	if err := h.srv.Restore(replayed(LockRecord{Resource: 1, Mode: Mode(99), Range: extent.New(0, 1)})); err == nil {
		t.Fatal("invalid mode restored")
	}
	if err := h.srv.Restore(replayed(LockRecord{Resource: 1, Mode: NBW})); err == nil {
		t.Fatal("empty range restored")
	}
	if err := h.srv.Restore(LockState{Epoch: 2, Slots: []partition.Slot{partition.NumSlots}}); err == nil {
		t.Fatal("out-of-range slot taken")
	}
}

func TestRestoreSeedsLockIDs(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	err := h.srv.Restore(replayed(
		LockRecord{Resource: 1, Client: 1, LockID: 500, Mode: NBW, Range: extent.New(0, 10), SN: 7},
	))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh grant must allocate above the restored ID and SN.
	g, err := h.srv.Lock(context.Background(), Request{Resource: 1, Client: 2, Mode: NBW, Range: extent.New(100000, 100001)})
	if err != nil {
		t.Fatal(err)
	}
	if g.LockID <= 500 {
		t.Fatalf("lock ID %d not above restored 500", g.LockID)
	}
	if g.SN <= 7 {
		t.Fatalf("SN %d not above restored 7", g.SN)
	}
}

func TestRestoreCancelingLockNotReRevoked(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	// A restored CANCELING lock must behave like one: early grant works
	// against it and no new revocation is sent.
	err := h.srv.Restore(replayed(
		LockRecord{Resource: 1, Client: 1, LockID: 9, Mode: NBW, Range: extent.New(0, extent.Inf), SN: 3, State: Canceling},
	))
	if err != nil {
		t.Fatal(err)
	}
	hd := mustAcquire(t, h.client(2), 1, NBW, extent.New(0, extent.Inf))
	if hd.SN() <= 3 {
		t.Fatalf("SN %d not above restored", hd.SN())
	}
	if h.srv.Stats.Revocations.Load() != 0 {
		t.Fatal("restored canceling lock was revoked again")
	}
	h.client(2).Unlock(hd)
}

// grantsOf reads a resource's lifetime grant count.
func grantsOf(s *Server, id ResourceID) int {
	res := s.lookup(id)
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.grants
}

// nextWriteSN grants a write lock on a range no test lock touches and
// returns its SN: the sequencer's position.
func nextWriteSN(t *testing.T, s *Server, id ResourceID) extent.SN {
	t.Helper()
	g, err := s.Lock(context.Background(), Request{Resource: id, Client: 9, Mode: NBW, Range: extent.New(100000, 100001)})
	if err != nil {
		t.Fatal(err)
	}
	return g.SN
}

// TestRestoreRefusesNonEmptyResource: restoring onto a resource that
// holds a lock is refused, not merged, and the refused state installs
// nothing and takes no slot.
func TestRestoreRefusesNonEmptyResource(t *testing.T) {
	s := newBareEngine(SeqDLM())
	busy, idle := ridInSlot(t, 3, 0), ridInSlot(t, 4, 0)
	s.SetSlots(1, []partition.Slot{3})
	if _, err := s.Lock(context.Background(), Request{Resource: busy, Client: 1, Mode: NBW, Range: extent.New(0, 10)}); err != nil {
		t.Fatal(err)
	}
	err := s.Restore(LockState{Epoch: 2, Slots: []partition.Slot{3, 4}, Resources: ByResource([]LockRecord{
		{Resource: busy, Client: 2, LockID: 900, Mode: PR, Range: extent.New(500, 600)},
		{Resource: idle, Client: 2, LockID: 901, Mode: NBW, Range: extent.New(0, 10), SN: 3},
	})})
	if err == nil {
		t.Fatal("restore onto a resource holding a lock accepted")
	}
	if got := s.GrantedCount(busy); got != 1 {
		t.Fatalf("refused restore left %d locks on the busy resource, want its own 1", got)
	}
	if got := s.GrantedCount(idle); got != 0 {
		t.Fatalf("refused restore installed %d locks on the idle resource", got)
	}
	if err := s.CheckMaster(idle); err != wire.ErrNotOwner {
		t.Fatalf("refused restore took slot 4: %v", err)
	}
	if s.PartitionEpoch() != 1 {
		t.Fatalf("refused restore moved the epoch to %d", s.PartitionEpoch())
	}
}

// TestRestoreSequencerPosition: a migrated resource resumes exactly at
// its exported NextSN, a replayed one at the larger of the floor and its
// newest write SN + 1, and a resource nobody replayed starts at the
// floor.
func TestRestoreSequencerPosition(t *testing.T) {
	migrated, fresh := ridInSlot(t, 5, 0), ridInSlot(t, 5, 1_000)
	dst := newBareEngine(SeqDLM())
	if err := dst.Restore(LockState{Epoch: 2, Slots: []partition.Slot{5}, Floor: 10, Resources: []ResourceState{
		{Resource: migrated, NextSN: 42, Grants: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	if sn := nextWriteSN(t, dst, migrated); sn != 42 {
		t.Fatalf("migrated resource resumed at SN %d, want exactly 42", sn)
	}
	if sn := nextWriteSN(t, dst, fresh); sn != 10 {
		t.Fatalf("a resource first seen after the migration starts at SN %d, want the floor 10", sn)
	}

	s := newBareEngine(SeqDLM())
	const floor = 1000
	if err := s.Restore(LockState{Floor: floor, Resources: ByResource([]LockRecord{
		{Resource: 1, Client: 1, LockID: 1, Mode: NBW, Range: extent.New(0, 10), SN: 1500},
		{Resource: 2, Client: 1, LockID: 2, Mode: PR, Range: extent.New(0, 10), SN: 7},
		{Resource: 2, Client: 2, LockID: 3, Mode: NBW, Range: extent.New(20, 30), SN: 6},
	})}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		res  ResourceID
		want extent.SN
	}{{1, 1501}, {2, floor}, {3, floor}} {
		if sn := nextWriteSN(t, s, c.res); sn != c.want {
			t.Fatalf("replayed resource %d resumed at SN %d, want %d", c.res, sn, c.want)
		}
	}
}

// TestRestoreGrantCount: a restored resource counts the larger of its
// exported grant count and the locks installed; a replay carries no
// count, and a handed-off record is not installed.
func TestRestoreGrantCount(t *testing.T) {
	s := newBareEngine(SeqDLM())
	if err := s.Restore(LockState{Resources: []ResourceState{
		{Resource: 1, Grants: 7, Locks: []LockRecord{
			{Resource: 1, Client: 1, LockID: 1, Mode: NBW, Range: extent.New(0, 10), SN: 4},
		}},
		{Resource: 2, Locks: []LockRecord{
			{Resource: 2, Client: 1, LockID: 2, Mode: PR, Range: extent.New(0, 10)},
			{Resource: 2, Client: 2, LockID: 3, Mode: PR, Range: extent.New(0, 10)},
			{Resource: 2, Client: 3, LockID: 4, Mode: PR, Range: extent.New(0, 10), HandedOff: true},
		}},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := grantsOf(s, 1); got != 7 {
		t.Fatalf("migrated resource counts %d grants, want its exported 7", got)
	}
	if got := grantsOf(s, 2); got != 2 {
		t.Fatalf("replayed resource counts %d grants, want its 2 installed locks", got)
	}
}
