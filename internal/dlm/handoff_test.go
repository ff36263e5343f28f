package dlm

import (
	"context"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
)

// hoHarness wires a Server and LockClients with the full handoff fast
// path: stamped revocations are delivered into the holder, peer
// transfers route directly between clients, server-sent activations
// arrive through the HandoffNotifier extension, and the conn
// implements HandoffAcker so FlushHandoffAcks can drain.
type hoHarness struct {
	srv     *Server
	flusher *recFlusher
	clients map[ClientID]*LockClient

	mu            sync.Mutex
	dropRevokes   bool // swallow revocations (vanished holder)
	dropTransfers bool // swallow peer transfers (lost handoff message)
	dropLeases    bool // swallow lease propagations (lost tree edges)
}

type hoNotifier struct{ h *hoHarness }

func (n hoNotifier) Revoke(_ context.Context, rv Revocation) {
	h := n.h
	h.mu.Lock()
	drop := h.dropRevokes
	h.mu.Unlock()
	if drop {
		return
	}
	if c, ok := h.clients[rv.Client]; ok {
		c.OnRevokeStamped(rv.Resource, rv.Lock, rv.Handoff)
	}
	h.srv.RevokeAck(rv.Resource, rv.Lock)
}

// Handoff implements HandoffNotifier: the server-sent activation path.
func (n hoNotifier) Handoff(_ context.Context, client ClientID, res ResourceID, id LockID) {
	if c, ok := n.h.clients[client]; ok {
		c.OnHandoff(res, id)
	}
}

// SolicitAck implements AckSolicitor: the demand-driven ack request.
func (n hoNotifier) SolicitAck(_ context.Context, client ClientID, res ResourceID, id LockID) {
	if c, ok := n.h.clients[client]; ok {
		c.OnAckSolicit(res, id)
	}
}

// hoConn is directConn plus the standalone delegation-ack path.
type hoConn struct{ srv *Server }

func (d hoConn) Lock(ctx context.Context, req Request) (Grant, error) {
	return d.srv.Lock(ctx, req)
}
func (d hoConn) Release(_ context.Context, res ResourceID, id LockID) error {
	d.srv.Release(res, id)
	return nil
}
func (d hoConn) Downgrade(_ context.Context, res ResourceID, id LockID, m Mode) error {
	return d.srv.Downgrade(res, id, m)
}
func (d hoConn) HandoffAck(_ context.Context, res ResourceID, id LockID) error {
	d.srv.HandoffAck(res, id)
	return nil
}

func newHOHarness(t *testing.T, policy Policy, nclients int, peers bool) *hoHarness {
	t.Helper()
	h := &hoHarness{
		flusher: &recFlusher{},
		clients: make(map[ClientID]*LockClient),
	}
	h.srv = NewServer(policy, nil)
	h.srv.SetNotifier(hoNotifier{h})
	router := func(ResourceID) ServerConn { return hoConn{h.srv} }
	for i := 1; i <= nclients; i++ {
		id := ClientID(i)
		c := NewLockClient(id, policy, router, h.flusher)
		if peers {
			c.SetPeerSender(PeerSenderFunc(func(_ context.Context, peer ClientID, res ResourceID, lid LockID, acks []LockID, bcast *BroadcastStamp) error {
				h.mu.Lock()
				drop := h.dropTransfers
				h.mu.Unlock()
				if drop {
					return nil // accepted, then lost in flight
				}
				h.clients[peer].OnHandoffMsg(res, lid, false, acks, bcast)
				return nil
			}))
		}
		h.clients[id] = c
	}
	t.Cleanup(func() {
		for _, c := range h.clients {
			c.Close()
		}
		h.srv.Shutdown()
	})
	return h
}

func (h *hoHarness) client(i int) *LockClient { return h.clients[ClientID(i)] }

func handoffPolicy() Policy {
	p := SeqDLM()
	p.Handoff = true
	return p
}

// TestHandoffPingPong is the tentpole scenario: two clients alternate
// conflicting whole-range writes. Every exchange after the first must
// delegate client-to-client, SNs must stay strictly monotonic, and the
// per-exchange server cost must be about one lock RPC (the delegation
// ack piggybacks on the next round's request).
func TestHandoffPingPong(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 2, true)
	res := ResourceID(1)
	rng := extent.New(0, 4096)
	const rounds = 20

	var lastSN extent.SN
	for i := 0; i < rounds; i++ {
		c := h.client(1 + i%2)
		hd := mustAcquire(t, c, res, NBW, rng)
		if i > 0 && hd.SN() <= lastSN {
			t.Fatalf("round %d: SN %d not greater than previous %d", i, hd.SN(), lastSN)
		}
		lastSN = hd.SN()
		c.Unlock(hd)
	}

	if got, want := h.srv.Stats.Handoffs.Load(), int64(rounds-1); got != want {
		t.Fatalf("Handoffs = %d, want %d", got, want)
	}
	// The last transfer's sender counts it once its send returns, which
	// can be after the receiver's acquire did.
	var sent, recv int64
	waitFor(t, "the last handoff counted by both ends", func() bool {
		sent = h.client(1).Stats.HandoffsSent.Load() + h.client(2).Stats.HandoffsSent.Load()
		recv = h.client(1).Stats.HandoffsRecv.Load() + h.client(2).Stats.HandoffsRecv.Load()
		return sent >= rounds-1 && recv >= rounds-1
	})
	if sent != rounds-1 || recv != rounds-1 {
		t.Fatalf("HandoffsSent/Recv = %d/%d, want %d/%d", sent, recv, rounds-1, rounds-1)
	}

	// Drain: confirm the final outstanding delegation, then check the
	// server settled to a single granted lock with no predecessor chain.
	ctx := context.Background()
	h.client(1).FlushHandoffAcks(ctx)
	h.client(2).FlushHandoffAcks(ctx)
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if got := h.srv.GrantedCount(res); got != 1 {
		t.Fatalf("GrantedCount = %d after drain, want 1", got)
	}

	// Server cost: rounds lock RPCs plus at most the final standalone
	// ack — against ~2*rounds for the flush-and-release path.
	ops := h.srv.Stats.LockOps.Load()
	if ops > int64(rounds)+2 {
		t.Fatalf("LockOps = %d for %d exchanges, want about one per exchange", ops, rounds)
	}
	// Every transfer was confirmed exactly once.
	if acks := h.srv.Stats.HandoffAcks.Load(); acks != int64(rounds-1) {
		t.Fatalf("HandoffAcks = %d, want %d", acks, rounds-1)
	}
	if rec := h.srv.Stats.HandoffReclaims.Load(); rec != 0 {
		t.Fatalf("HandoffReclaims = %d, want 0", rec)
	}
}

// TestHandoffFallbackRelease covers the holder without a peer
// transport: the stamped cancel falls back to releasing through the
// server, which resolves the delegation itself and activates the
// successor over the notifier.
func TestHandoffFallbackRelease(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 2, false) // no peer senders
	res := ResourceID(7)
	rng := extent.New(0, 4096)

	hd := mustAcquire(t, h.client(1), res, PW, rng)
	h.client(1).Unlock(hd)
	hd2 := mustAcquire(t, h.client(2), res, PW, rng)
	h.client(2).Unlock(hd2)

	if got := h.srv.Stats.Handoffs.Load(); got != 1 {
		t.Fatalf("Handoffs = %d, want 1", got)
	}
	if sent := h.client(1).Stats.HandoffsSent.Load(); sent != 0 {
		t.Fatalf("HandoffsSent = %d without a peer transport, want 0", sent)
	}
	// The fallback release resolved the delegation: nothing to ack, no
	// reclaim, and only client 2's lock remains.
	h.client(2).FlushHandoffAcks(context.Background())
	if got := h.srv.GrantedCount(res); got != 1 {
		t.Fatalf("GrantedCount = %d, want 1", got)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestHandoffReclaim covers the vanished holder: the stamped
// revocation never reaches it, so the reclaimer first re-revokes
// (also lost) and then force-resolves the delegation, activating the
// parked successor.
func TestHandoffReclaim(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 2, true)
	h.srv.SetHandoffTimeout(20 * time.Millisecond)
	res := ResourceID(9)
	rng := extent.New(0, 4096)

	hd := mustAcquire(t, h.client(1), res, PW, rng)
	h.client(1).Unlock(hd)

	h.mu.Lock()
	h.dropRevokes = true
	h.mu.Unlock()

	start := time.Now()
	hd2 := mustAcquire(t, h.client(2), res, PW, rng)
	if time.Since(start) < 20*time.Millisecond {
		t.Fatalf("delegated acquire completed before the reclaim timeout")
	}
	h.client(2).Unlock(hd2)

	if got := h.srv.Stats.HandoffReclaims.Load(); got != 1 {
		t.Fatalf("HandoffReclaims = %d, want 1", got)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestHandoffNudgeResolves covers the slow-but-alive holder: the
// transfer is lost, but the reclaimer's plain re-revoke reaches the
// holder, whose normal cancel path releases through the server and
// resolves the delegation — no force reclaim.
func TestHandoffNudgeResolves(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 2, true)
	h.srv.SetHandoffTimeout(20 * time.Millisecond)
	res := ResourceID(11)
	rng := extent.New(0, 4096)

	hd := mustAcquire(t, h.client(1), res, PW, rng)
	h.client(1).Unlock(hd)

	h.mu.Lock()
	h.dropTransfers = true // peer send "succeeds" but the message is lost
	h.mu.Unlock()

	hd2 := mustAcquire(t, h.client(2), res, PW, rng)
	h.client(2).Unlock(hd2)

	if got := h.srv.Stats.Handoffs.Load(); got != 1 {
		t.Fatalf("Handoffs = %d, want 1", got)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestHandoffIneligibleMultipleConflicts: a write conflicting with two
// readers follows the normal revoke path — delegation only fires when
// the conflict is owed to exactly one lock.
func TestHandoffIneligibleMultipleConflicts(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 3, true)
	res := ResourceID(13)
	rng := extent.New(0, 4096)

	r1 := mustAcquire(t, h.client(1), res, PR, rng)
	h.client(1).Unlock(r1)
	r2 := mustAcquire(t, h.client(2), res, PR, rng)
	h.client(2).Unlock(r2)

	w := mustAcquire(t, h.client(3), res, PW, rng)
	h.client(3).Unlock(w)

	if got := h.srv.Stats.Handoffs.Load(); got != 0 {
		t.Fatalf("Handoffs = %d with two conflicting readers, want 0", got)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestHandoffSameClientNotStamped: an upgrade-style conflict with the
// requester's own cached lock must never delegate to itself.
func TestHandoffSameClientNotStamped(t *testing.T) {
	p := handoffPolicy()
	p.Conversion = false // keep the conflict a real conflict
	h := newHOHarness(t, p, 1, true)
	res := ResourceID(15)

	a := mustAcquire(t, h.client(1), res, PW, extent.New(0, 4096))
	h.client(1).Unlock(a)
	b := mustAcquire(t, h.client(1), res, PW, extent.New(0, 4096))
	h.client(1).Unlock(b)

	if got := h.srv.Stats.Handoffs.Load(); got != 0 {
		t.Fatalf("Handoffs = %d for same-client conflict, want 0", got)
	}
}

// TestHandoffDisabledByDefault: none of the stock policies enable the
// fast path, and with it off the engine must never stamp.
func TestHandoffDisabledByDefault(t *testing.T) {
	for _, p := range []Policy{SeqDLM(), Basic(), Lustre(), Datatype()} {
		if p.Handoff {
			t.Fatalf("policy %q enables Handoff by default", p.Name)
		}
	}
	h := newHOHarness(t, SeqDLM(), 2, true)
	res := ResourceID(17)
	rng := extent.New(0, 4096)
	for i := 0; i < 6; i++ {
		c := h.client(1 + i%2)
		hd := mustAcquire(t, c, res, NBW, rng)
		c.Unlock(hd)
	}
	if got := h.srv.Stats.Handoffs.Load(); got != 0 {
		t.Fatalf("Handoffs = %d with Handoff off, want 0", got)
	}
	// The cancels (flush + release) run asynchronously behind the early
	// grants; wait for at least one to land.
	deadline := time.Now().Add(5 * time.Second)
	for h.srv.Stats.Releases.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no Releases recorded — the normal revoke path did not run")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandoffChainAck: three clients hand the lock around without any
// ack landing (acks are only flushed at the end), building a
// predecessor chain; the final ack must retire the whole chain.
func TestHandoffChainAck(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 3, true)
	h.srv.SetHandoffTimeout(time.Hour) // keep the reclaimer out of it
	res := ResourceID(19)
	rng := extent.New(0, 4096)

	// The piggybacked-ack path is per-resource, so ping-pong on one
	// resource drains acks naturally; to build a chain, stop the timer
	// path from firing by flushing through a conn whose acks we hold
	// back: acquire in strict rotation faster than the 20ms flush
	// delay.
	for i := 0; i < 3; i++ {
		c := h.client(1 + i%3)
		hd := mustAcquire(t, c, res, NBW, rng)
		c.Unlock(hd)
	}
	if got := h.srv.Stats.Handoffs.Load(); got != 2 {
		t.Fatalf("Handoffs = %d, want 2", got)
	}

	// Let every queued ack land, then the chain must be fully retired:
	// exactly one granted lock, every transfer confirmed.
	for i := 1; i <= 3; i++ {
		h.client(i).FlushHandoffAcks(context.Background())
	}
	if got := h.srv.GrantedCount(res); got != 1 {
		t.Fatalf("GrantedCount = %d after acks, want 1", got)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestHandoffFreezeResolvesDelegation: freezing a slot for migration
// with a delegation outstanding (the transfer was lost in flight) must
// force-resolve it — predecessor chain retired, successor activated and
// exported as a plain granted lock — so the importing master never
// sees delegation state it cannot own, and the sequencer stays
// monotonic across the move.
func TestHandoffFreezeResolvesDelegation(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 2, true)
	h.srv.SetHandoffTimeout(time.Hour) // the freeze, not the reclaimer, must resolve
	h.mu.Lock()
	h.dropTransfers = true
	h.mu.Unlock()

	res := ridInSlot(t, 25, 0)
	h.srv.SetSlots(1, []partition.Slot{25})
	rng := extent.New(0, 4096)

	hd := mustAcquire(t, h.client(1), res, NBW, rng)
	sn1 := hd.SN()
	h.client(1).Unlock(hd)

	done := make(chan *Handle, 1)
	go func() {
		hd2, err := h.client(2).Acquire(context.Background(), res, NBW, rng)
		if err != nil {
			t.Errorf("delegated acquire: %v", err)
			close(done)
			return
		}
		done <- hd2
	}()
	waitFor(t, "delegation stamped", func() bool { return h.srv.Stats.Handoffs.Load() == 1 })

	exp, err := h.srv.FreezeExportSlot(25)
	if err != nil {
		t.Fatal(err)
	}
	hd2, ok := <-done
	if !ok {
		t.FailNow()
	}
	if hd2.SN() <= sn1 {
		t.Fatalf("delegated SN %d not above predecessor's %d", hd2.SN(), sn1)
	}
	if got := h.srv.Stats.HandoffReclaims.Load(); got != 1 {
		t.Fatalf("HandoffReclaims = %d, want 1 (freeze force-resolve)", got)
	}
	// The export carries exactly the successor, as a plain granted
	// lock; the retired predecessor must not travel.
	if len(exp.Resources) != 1 || len(exp.Resources[0].Locks) != 1 {
		t.Fatalf("export = %+v, want one resource with one lock", exp.Resources)
	}
	rec := exp.Resources[0].Locks[0]
	if rec.Client != 2 || rec.LockID != hd2.ID() {
		t.Fatalf("exported lock %+v, want client 2 lock %d", rec, hd2.ID())
	}

	// Install at the successor master: the sequencer continues above
	// every pre-freeze grant.
	dst := newBareEngine(handoffPolicy())
	if err := dst.InstallSlot(exp, 2); err != nil {
		t.Fatal(err)
	}
	g, err := dst.Lock(context.Background(), Request{
		Resource: res, Client: 3, Mode: NBW, Range: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.SN <= hd2.SN() {
		t.Fatalf("post-install SN %d not above delegated SN %d", g.SN, hd2.SN())
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
