package dlm

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
)

// hoHarness wires a Server and LockClients with the full handoff fast
// path: stamped revocations are delivered into the holder, peer
// transfers and lease propagations route directly between clients,
// server-sent activations and ack solicitations arrive through the
// notifier, and the conn implements HandoffAcker so FlushHandoffAcks
// can drain.
type hoHarness struct {
	srv     *Server
	flusher *recFlusher
	clients map[ClientID]*LockClient

	mu            sync.Mutex
	dropRevokes   bool                   // swallow revocations (vanished holder)
	dropTransfers bool                   // swallow parts and handbacks (lost handoff message)
	dropLeases    bool                   // swallow propagation-tree hops (lost tree edges)
	faults        map[ClientID]peerFault // how each sender's peer sends fail
	acked         []LockID               // every lock ID a standalone HandoffAck carried
}

// peerFault is how a client's peer sends fail in the harness.
type peerFault uint8

const (
	sendOK      peerFault = iota
	sendRefused           // the send fails and nothing is delivered
	sendLostAck           // the transfer is delivered, then the send reports an error
)

// errPeerSend is a harness peer send's injected failure.
var errPeerSend = errors.New("harness: peer send failed")

type hoNotifier struct{ h *hoHarness }

func (n hoNotifier) RevokeBatch(_ context.Context, client ClientID, revs []Revocation) {
	h := n.h
	h.mu.Lock()
	drop := h.dropRevokes
	h.mu.Unlock()
	if drop {
		return
	}
	for _, rv := range revs {
		if c, ok := h.clients[client]; ok {
			c.OnRevokeStamped(rv.Resource, rv.Lock, rv.Handoff)
		}
		h.srv.RevokeAck(rv.Resource, rv.Lock)
	}
}

// Handoff implements Notifier: the server-sent activation path.
func (n hoNotifier) Handoff(_ context.Context, client ClientID, res ResourceID, t Transfer) {
	if c, ok := n.h.clients[client]; ok {
		c.OnTransfer(res, t)
	}
}

// SolicitAck implements Notifier: the demand-driven ack request.
func (n hoNotifier) SolicitAck(_ context.Context, client ClientID, res ResourceID, id LockID) {
	if c, ok := n.h.clients[client]; ok {
		c.OnAckSolicit(res, id)
	}
}

// hoConn is directConn plus the standalone delegation-ack path, which
// it records in the harness.
type hoConn struct {
	srv *Server
	h   *hoHarness
}

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
func (d hoConn) HandoffAck(_ context.Context, res ResourceID, ids []LockID) error {
	d.h.mu.Lock()
	d.h.acked = append(d.h.acked, ids...)
	d.h.mu.Unlock()
	d.srv.HandoffAck(res, ids...)
	return nil
}

// hoSender is one harness client's peer transport: parts, handbacks and
// propagation-tree hops, each droppable to simulate loss, and failing
// as the harness's faults say for this sender.
type hoSender struct {
	h    *hoHarness
	from ClientID
}

func (s hoSender) SendTransfer(_ context.Context, peer ClientID, res ResourceID, t Transfer) error {
	s.h.mu.Lock()
	// A hop carries a cohort that no flush precedes; a handback's does.
	drop := s.h.dropTransfers
	if t.Cohort != nil && !t.Cohort.MustFlush {
		drop = s.h.dropLeases
	}
	fault := s.h.faults[s.from]
	s.h.mu.Unlock()
	switch {
	case fault == sendRefused:
		return errPeerSend
	case drop:
		return nil // accepted, then lost in flight
	}
	s.h.clients[peer].OnTransfer(res, t)
	if fault == sendLostAck {
		return errPeerSend
	}
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
	router := func(ResourceID) ServerConn { return hoConn{h.srv, h} }
	for i := 1; i <= nclients; i++ {
		id := ClientID(i)
		c := NewLockClient(id, policy, router, h.flusher)
		if peers {
			c.SetPeerSender(hoSender{h, id})
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

// reclaimEvery returns p with reclaim interval d, the one deadline the
// server's reclaimer and the clients' ack and standing timers all read.
func reclaimEvery(p Policy, d time.Duration) Policy {
	p.HandoffReclaimInterval = d
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
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), 20*time.Millisecond), 2, true)
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
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), 20*time.Millisecond), 2, true)
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
// readers is no single-successor handoff: it gathers the readers'
// cohort, one delegation converging on the writer (DESIGN.md §14).
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

	if got := h.srv.Stats.Gathers.Load(); got != 1 {
		t.Fatalf("Gathers = %d with two conflicting readers, want 1", got)
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
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), time.Hour), 3, true) // keep the reclaimer out of it
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
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), time.Hour), 2, true) // the freeze, not the reclaimer, must resolve
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
	exp.Epoch = 2
	if err := dst.Restore(exp); err != nil {
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

// delegate leaves client 2 of a fresh harness caching an idle lock of
// res that client 1 transferred to it, with the delegation's ack still
// in client 2's lazy queue: the lazy flush timer is far off, so only
// the test sends it.
func delegate(t *testing.T, res ResourceID) (*hoHarness, LockID) {
	t.Helper()
	p := handoffPolicy()
	p.HandoffReclaimInterval = time.Minute
	h := newHOHarness(t, p, 2, true)
	rng := extent.New(0, 4096)
	h.client(1).Unlock(mustAcquire(t, h.client(1), res, NBW, rng))
	hd := mustAcquire(t, h.client(2), res, NBW, rng)
	h.client(2).Unlock(hd)
	if n := h.srv.GrantedCount(res); n != 2 {
		t.Fatalf("GrantedCount = %d before the ack, want 2 (the delegation and its predecessor)", n)
	}
	return h, hd.ID()
}

// settled reports what a released delegation leaves behind: the locks
// still granted on res, the reclaim entries still registered, and the
// server's release and ack counts.
func settled(h *hoHarness, res ResourceID) (granted, reclaims int, releases, acks int64) {
	h.srv.reclaim.mu.Lock()
	reclaims = len(h.srv.reclaim.entries)
	h.srv.reclaim.mu.Unlock()
	return h.srv.GrantedCount(res), reclaims, h.srv.Stats.Releases.Load(), h.srv.Stats.HandoffAcks.Load()
}

// TestReleaseRetiresUnackedDelegation: releasing a delegated lock that
// was never acked leaves the server as an ack followed by the release
// does — the lock and its predecessor gone, the reclaim entry
// deregistered — except that no ack is counted.
func TestReleaseRetiresUnackedDelegation(t *testing.T) {
	const res = ResourceID(3)
	acked, id := delegate(t, res)
	acked.srv.HandoffAck(res, id)
	acked.srv.Release(res, id)
	bare, id2 := delegate(t, res)
	bare.srv.Release(res, id2)
	for _, h := range []*hoHarness{acked, bare} {
		if err := h.srv.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	}
	g1, r1, rel1, a1 := settled(acked, res)
	g2, r2, rel2, a2 := settled(bare, res)
	if g1 != 0 || g2 != 0 || r1 != 0 || r2 != 0 {
		t.Fatalf("granted %d/%d, reclaim entries %d/%d after ack+release/release, want all 0", g1, g2, r1, r2)
	}
	if rel1 != rel2 {
		t.Fatalf("Releases = %d after ack+release, %d after release alone", rel1, rel2)
	}
	if a1 != 1 || a2 != 0 {
		t.Fatalf("HandoffAcks = %d after ack+release, %d after release alone, want 1 and 0", a1, a2)
	}
}

// TestReleaseAllDropsAcksOfItsCancels: ReleaseAll sends no ack for a
// delegated lock it cancels, whose release retires the delegation, but
// still sends the acks queued for a delegation the client does not
// cache (one forwarded by a transferring reader) and for a delegated
// lock a caller still holds.
func TestReleaseAllDropsAcksOfItsCancels(t *testing.T) {
	const idle, heldRes, fwdRes = ResourceID(1), ResourceID(2), ResourceID(3)
	h, idleID := delegate(t, idle)
	rng := extent.New(0, 4096)
	c1, c2 := h.client(1), h.client(2)
	c1.Unlock(mustAcquire(t, c1, heldRes, NBW, rng))
	held := mustAcquire(t, c2, heldRes, NBW, rng)
	const forwarded = LockID(999)
	c2.requeueAcks(fwdRes, []LockID{forwarded})

	done := make(chan error, 1)
	go func() { done <- c2.ReleaseAll(context.Background()) }()
	waitFor(t, "the held lock's ack", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return slices.Contains(h.acked, held.ID())
	})
	c2.Unlock(held)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// ReleaseAll does not wait for a handle a caller holds; its final
	// Unlock runs the cancel.
	if err := c2.waitReleased(context.Background(), held); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	acked := slices.Clone(h.acked)
	h.mu.Unlock()
	if slices.Contains(acked, idleID) {
		t.Fatalf("acks sent %v include %d, the idle lock ReleaseAll canceled", acked, idleID)
	}
	if !slices.Contains(acked, forwarded) {
		t.Fatalf("acks sent %v lack %d, forwarded for an uncached delegation", acked, forwarded)
	}
	if n := h.srv.GrantedCount(idle) + h.srv.GrantedCount(heldRes); n != 0 {
		t.Fatalf("%d locks granted after ReleaseAll, want 0", n)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestAbandonedDelegatedWaitRetires: a delegated acquire whose ctx
// fires before its transfer arrives releases the lock through the
// server and retires it. A part or an activation for it that arrives
// afterwards leaves no record and installs nothing.
func TestAbandonedDelegatedWaitRetires(t *testing.T) {
	h := newHOHarness(t, solicitPolicy(), 2, true)
	res, rng := ResourceID(23), extent.New(0, 4096)
	h.client(1).Unlock(mustAcquire(t, h.client(1), res, PW, rng))
	h.mu.Lock()
	h.dropTransfers = true // the holder's part is lost in flight
	h.mu.Unlock()

	c := h.client(2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, res, PW, rng)
		done <- err
	}()
	var id LockID
	var sn extent.SN
	waitFor(t, "the delegated grant awaiting its transfer", func() bool {
		c.st.mu.Lock()
		defer c.st.mu.Unlock()
		for _, hd := range c.st.cached[res] {
			if hd.need > 0 {
				id, sn = hd.id, hd.sn
				return true
			}
		}
		return false
	})
	cancel()
	if err := <-done; err == nil {
		t.Fatal("acquire succeeded with no transfer and its ctx canceled")
	}
	if got := h.srv.GrantedCount(res); got != 0 {
		t.Fatalf("GrantedCount = %d after the abandoned wait, want 0: the lock is released through the server", got)
	}

	c.OnTransfer(res, Transfer{Lock: id})
	c.OnTransfer(res, activation(2, res, id, PW, rng, sn).t)
	c.st.mu.Lock()
	early := len(c.st.early)
	c.st.mu.Unlock()
	if early != 0 || c.CachedLocks(res) != 0 {
		t.Fatalf("late part and activation left %d early records and %d cached locks, want none", early, c.CachedLocks(res))
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGrantAfterActivationClaimsLease: a delegated grant reply that the
// server's activation beat claims the lease the activation installed,
// instead of caching a second handle for the lock, and its wait returns
// at once without queueing a second ack.
func TestGrantAfterActivationClaimsLease(t *testing.T) {
	c := NewLockClient(2, handoffPolicy(), func(ResourceID) ServerConn { return directConn{} }, &recFlusher{})
	defer c.Close()
	res, rng := ResourceID(3), extent.New(0, 4096)
	g := Grant{LockID: 9, Mode: PW, Range: rng, SN: 5, Delegated: true}
	c.OnTransfer(res, activation(2, res, g.LockID, g.Mode, g.Range, g.SN).t)
	h := c.run(res, grantEvent(&g, PW))
	if h == nil || c.CachedLocks(res) != 1 {
		t.Fatalf("grant after the activation = %v with %d cached locks, want the activated lease alone", h, c.CachedLocks(res))
	}
	got, err := c.await(context.Background(), res, clientEvent{kind: cevAwait, h: h}, time.Time{})
	if err != nil || got != h {
		t.Fatalf("wait = %v, %v, want the lease at once", got, err)
	}
	c.st.mu.Lock()
	acks := slices.Clone(c.st.pendingAcks[res])
	c.st.mu.Unlock()
	if !slices.Equal(acks, []LockID{g.LockID}) {
		t.Fatalf("queued acks %v, want the lease's one", acks)
	}
	c.Unlock(h)
}

// scriptConn answers lock requests with its grants in turn, handing
// each to hook before the client sees the reply, and records releases.
type scriptConn struct {
	grants []Grant
	hook   func(Grant)
	mu     sync.Mutex
	calls  int
	rels   []LockID
}

func (s *scriptConn) Lock(context.Context, Request) (Grant, error) {
	s.mu.Lock()
	g := s.grants[s.calls]
	s.calls++
	s.mu.Unlock()
	s.hook(g)
	return g, nil
}

func (s *scriptConn) Release(_ context.Context, _ ResourceID, id LockID) error {
	s.mu.Lock()
	s.rels = append(s.rels, id)
	s.mu.Unlock()
	return nil
}

func (s *scriptConn) Downgrade(context.Context, ResourceID, LockID, Mode) error { return nil }

// TestGrantAfterActivationLeftStartsOver: a delegated grant reply that
// reaches the client after the server's activation installed its lease
// and a revocation canceled and released that lease caches nothing and
// does not wait for a transfer that will never come: the acquire starts
// over with a new request.
func TestGrantAfterActivationLeftStartsOver(t *testing.T) {
	res, rng := ResourceID(3), extent.New(0, 4096)
	conn := &scriptConn{grants: []Grant{
		{LockID: 9, Mode: PW, Range: rng, SN: 5, Delegated: true},
		{LockID: 10, Mode: PW, Range: rng, SN: 6},
	}}
	c := NewLockClient(2, handoffPolicy(), func(ResourceID) ServerConn { return conn }, &recFlusher{})
	defer c.Close()
	conn.hook = func(g Grant) {
		if !g.Delegated {
			return
		}
		c.OnTransfer(res, activation(2, res, g.LockID, g.Mode, g.Range, g.SN).t)
		c.OnRevoke(res, g.LockID)
		waitFor(t, "the activated lease released", func() bool {
			conn.mu.Lock()
			released := slices.Contains(conn.rels, g.LockID)
			conn.mu.Unlock()
			return released && c.CachedLocks(res) == 0
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hd, err := c.Acquire(ctx, res, PW, rng)
	if err != nil {
		t.Fatalf("acquire: %v; the reply for the released lease parked it", err)
	}
	if hd.ID() != 10 || c.CachedLocks(res) != 1 || conn.calls != 2 {
		t.Fatalf("acquire = lock %d with %d cached locks after %d requests, want lock 10 alone after 2", hd.ID(), c.CachedLocks(res), conn.calls)
	}
	c.Unlock(hd)
}

// TestStandingWaitKeepsRotation: a shared acquire's standing wait that
// its ctx ends leaves the resource in the fan rotation; only a passed
// deadline takes it out.
func TestStandingWaitKeepsRotation(t *testing.T) {
	c := NewLockClient(2, handoffPolicy(), func(ResourceID) ServerConn { return directConn{} }, &recFlusher{})
	defer c.Close()
	res, rng := ResourceID(3), extent.New(0, 4096)
	standing := func() bool {
		c.st.mu.Lock()
		defer c.st.mu.Unlock()
		return c.st.fanStanding[res]
	}
	c.st.mu.Lock()
	c.st.fanStanding[res] = true
	c.st.mu.Unlock()
	ev := clientEvent{kind: cevAwait, need: PR, rng: rng}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if h, err := c.await(ctx, res, ev, time.Now().Add(time.Hour)); h != nil || err == nil || !standing() {
		t.Fatalf("canceled standing wait = %v, %v, standing %v; want an error and the rotation kept", h, err, standing())
	}
	if h, err := c.await(context.Background(), res, ev, time.Now()); h != nil || err != nil || standing() {
		t.Fatalf("expired standing wait = %v, %v, standing %v; want neither and the rotation left", h, err, standing())
	}
}
