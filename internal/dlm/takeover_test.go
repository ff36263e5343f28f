package dlm

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
)

// takeoverHarness wires two clients against a switchable server: the
// router follows an atomic pointer, so "killing" the master and failing
// over to a successor is one store. Stamped revocations, peer
// transfers, and server-sent activations all route like the RPC stack
// would.
type takeoverHarness struct {
	active  atomic.Pointer[Server]
	flusher *recFlusher
	clients map[ClientID]*LockClient
}

type takeoverNotifier struct{ h *takeoverHarness }

func (n takeoverNotifier) RevokeBatch(_ context.Context, client ClientID, revs []Revocation) {
	for _, rv := range revs {
		if c, ok := n.h.clients[client]; ok {
			c.OnRevokeStamped(rv.Resource, rv.Lock, rv.Handoff)
		}
		n.h.active.Load().RevokeAck(rv.Resource, rv.Lock)
	}
}

func (n takeoverNotifier) Handoff(_ context.Context, client ClientID, res ResourceID, id, member LockID) {
	if c, ok := n.h.clients[client]; ok {
		c.OnTransfer(res, Transfer{Lock: id, Member: member, Final: member == 0})
	}
}

// SolicitAck implements Notifier; solicitations are dropped, so a
// delegation here is confirmed only by its owner's lazy ack.
func (n takeoverNotifier) SolicitAck(context.Context, ClientID, ResourceID, LockID) {}

type takeoverConn struct{ h *takeoverHarness }

func (d takeoverConn) Lock(ctx context.Context, req Request) (Grant, error) {
	return d.h.active.Load().Lock(ctx, req)
}
func (d takeoverConn) Release(_ context.Context, res ResourceID, id LockID) error {
	d.h.active.Load().Release(res, id)
	return nil
}
func (d takeoverConn) Downgrade(_ context.Context, res ResourceID, id LockID, m Mode) error {
	return d.h.active.Load().Downgrade(res, id, m)
}
func (d takeoverConn) HandoffAck(_ context.Context, res ResourceID, ids []LockID) error {
	d.h.active.Load().HandoffAck(res, ids...)
	return nil
}

// takeoverSender carries peer transfers straight into the receiving
// client. The test's policy has no fan-out, so no lease is ever sent.
type takeoverSender struct{ h *takeoverHarness }

func (s takeoverSender) SendTransfer(_ context.Context, peer ClientID, res ResourceID, t Transfer) error {
	s.h.clients[peer].OnTransfer(res, t)
	return nil
}

func allSlots() []partition.Slot {
	all := make([]partition.Slot, partition.NumSlots)
	for i := range all {
		all[i] = partition.Slot(i)
	}
	return all
}

// TestTakeoverResolvesInFlightTransfer kills a master mid-handoff: the
// holder has a stamped revocation (it owes the lock to a successor) but
// is still using the lock, and the successor is parked waiting for a
// transfer that cannot start. The taking-over master must drop the
// holder's handed-off lock from the replay (its holder will never
// release it through a server) and force-resolve the successor's
// delegated grant with an activation — without either, the successor
// hangs forever and the resource is wedged at the new master.
func TestTakeoverResolvesInFlightTransfer(t *testing.T) {
	policy := handoffPolicy()
	h := &takeoverHarness{
		flusher: &recFlusher{},
		clients: make(map[ClientID]*LockClient),
	}
	srv1 := NewServer(policy, nil)
	srv1.SetNotifier(takeoverNotifier{h})
	srv1.SetSlots(1, allSlots())
	h.active.Store(srv1)
	router := func(ResourceID) ServerConn { return takeoverConn{h} }
	for i := 1; i <= 2; i++ {
		id := ClientID(i)
		c := NewLockClient(id, policy, router, h.flusher)
		c.SetPeerSender(takeoverSender{h})
		h.clients[id] = c
	}
	a, b := h.clients[1], h.clients[2]
	t.Cleanup(func() {
		a.Close()
		b.Close()
		h.active.Load().Shutdown()
	})

	res := ResourceID(7)
	rng := extent.New(0, 4096)
	ctx := context.Background()

	// A holds the lock with an active user; B's conflicting request gets
	// a stamped delegation, so A owes B a transfer it cannot send while
	// its user is live, and B parks on the transfer's arrival.
	ha := mustAcquire(t, a, res, NBW, rng)
	bDone := make(chan error, 1)
	var hbBox atomic.Pointer[Handle]
	go func() {
		hb, err := b.Acquire(ctx, res, NBW, rng)
		if err == nil {
			hbBox.Store(hb)
		}
		bDone <- err
	}()

	slots := allSlots()
	var records []LockRecord
	waitFor(t, "handoff stamped with transfer outstanding", func() bool {
		records = append(a.ExportSlots(slots), b.ExportSlots(slots)...)
		var handed, delegated bool
		for _, r := range records {
			handed = handed || r.HandedOff
			delegated = delegated || r.Delegated
		}
		return handed && delegated
	})

	// Kill the master, so its reclaimer cannot resolve the delegation
	// either, and fail over: a successor adopts every slot from the
	// clients' replayed records.
	srv1.Shutdown()
	srv2 := NewServer(policy, nil)
	srv2.SetNotifier(takeoverNotifier{h})
	h.active.Store(srv2)
	if err := srv2.Restore(LockState{Epoch: 2, Slots: slots, Resources: ByResource(records)}); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// The activation must complete B's parked acquire even though A's
	// transfer never arrives (A is still holding).
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("successor acquire failed after takeover: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("successor still parked after takeover: delegation not force-resolved")
	}

	// Exactly B's lock was restored: A's handed-off lock is a zombie the
	// holder will never release and must not be replayed.
	if got := srv2.GrantedCount(res); got != 1 {
		t.Fatalf("GrantedCount = %d after adoption, want 1 (successor only)", got)
	}
	if err := srv2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after adoption: %v", err)
	}

	// A's late transfer (sent when its user finishes) is a duplicate the
	// successor drops; both sides then release cleanly through srv2 and
	// the resource makes progress.
	a.Unlock(ha)
	hb := hbBox.Load()
	snB := hb.SN()
	b.Unlock(hb)
	if err := a.ReleaseAll(ctx); err != nil {
		t.Fatalf("a.ReleaseAll: %v", err)
	}
	if err := b.ReleaseAll(ctx); err != nil {
		t.Fatalf("b.ReleaseAll: %v", err)
	}
	h2 := mustAcquire(t, a, res, NBW, rng)
	if h2.SN() <= snB {
		t.Fatalf("post-takeover SN %d not above successor's %d", h2.SN(), snB)
	}
	a.Unlock(h2)
	if err := srv2.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}
