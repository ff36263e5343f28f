package dlm

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
)

// The reader fan-out tests reuse the handoff harness (hoHarness) and
// its peer sender, exercising the full DESIGN.md §14 machinery: cohort
// gathers to a writer with a pre-armed handback, the handback's
// peer-to-peer propagation tree, reclaim of lost tree edges, and
// freeze/migration with handback delegations outstanding.

// formHandback drives the harness into a gather with a pre-armed
// handback: the readers (clients 2..nReaders+1) take PR locks from the
// server and keep them cached, then client 1's write acquire gathers
// them. It returns client 1's held handle, born owing the handback:
// unlocking it transfers the cohort's fresh leases to the lead reader.
// Every client's queued delegation acks are flushed before it returns.
func formHandback(t *testing.T, h *hoHarness, res ResourceID, rng extent.Extent, nReaders int) *Handle {
	t.Helper()
	for i := 0; i < nReaders; i++ {
		h.client(2 + i).Unlock(mustAcquire(t, h.client(2+i), res, PR, rng))
	}
	w := mustAcquire(t, h.client(1), res, NBW, rng)
	if got := h.srv.Stats.Gathers.Load(); got != 1 {
		t.Fatalf("Gathers = %d, want 1", got)
	}
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	return w
}

// acquireCohort has each reader take a PR lock over rng: once the
// handback has landed (or is landing), each one is a hit on its lease.
func acquireCohort(t *testing.T, h *hoHarness, res ResourceID, rng extent.Extent, nReaders int) []*Handle {
	t.Helper()
	got := make([]*Handle, nReaders)
	for i := range got {
		got[i] = mustAcquire(t, h.client(2+i), res, PR, rng)
	}
	return got
}

// TestReaderFanBroadcastTree: a writer that gathered a reader cohort
// transfers the pre-armed handback to the lead reader, and the lead
// propagates the remaining leases peer-to-peer — every reader ends
// with the same SN, above the writer's, without a server grant.
func TestReaderFanBroadcastTree(t *testing.T) {
	const nReaders = 4
	h := newHOHarness(t, handoffPolicy(), 1+nReaders, true)
	res := ResourceID(31)
	rng := extent.New(0, 4096)

	w := formHandback(t, h, res, rng, nReaders)
	wSN := w.SN()
	grants := h.srv.Stats.Grants.Load()
	h.client(1).Unlock(w) // transfers the handback to the lead

	got := acquireCohort(t, h, res, rng, nReaders)
	leaseSN := got[0].SN()
	for _, hd := range got {
		if hd.SN() != leaseSN {
			t.Fatalf("cohort SNs differ: %d vs %d", hd.SN(), leaseSN)
		}
		if hd.SN() <= wSN {
			t.Fatalf("lease SN %d not above the writer's %d", hd.SN(), wSN)
		}
	}
	if n := h.srv.Stats.Grants.Load() - grants; n != 0 {
		t.Fatalf("%d server grants after the handback, want 0", n)
	}
	if got := h.srv.Stats.LeaseGrants.Load(); got != nReaders {
		t.Fatalf("LeaseGrants = %d, want %d", got, nReaders)
	}
	// The tree carried every non-lead lease peer-to-peer: no reclaim,
	// and at least one propagation hop was sent.
	sent := int64(0)
	for _, c := range h.clients {
		sent += c.Stats.LeasesSent.Load()
	}
	if sent == 0 {
		t.Fatal("no lease propagations sent — the tree never fanned out")
	}
	if rec := h.srv.Stats.HandoffReclaims.Load(); rec != 0 {
		t.Fatalf("HandoffReclaims = %d, want 0", rec)
	}

	for i, hd := range got {
		h.client(2 + i).Unlock(hd)
	}
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	waitFor(t, "cohort confirmed and chain retired", func() bool {
		return h.srv.GrantedCount(res) == nReaders
	})
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestReaderFanGatherToWriter: the reverse edge over a delegated
// cohort — a writer conflicting with a whole cohort of handback leases
// gathers it in one stamp; each reader transfers its part directly to
// the writer, and the grant pre-arms the next handback. The gather
// costs the server exactly the one lock RPC.
func TestReaderFanGatherToWriter(t *testing.T) {
	const nReaders = 4
	h := newHOHarness(t, handoffPolicy(), 1+nReaders, true)
	res := ResourceID(33)
	rng := extent.New(0, 4096)

	h.client(1).Unlock(formHandback(t, h, res, rng, nReaders))
	var leaseSN extent.SN
	for i, hd := range acquireCohort(t, h, res, rng, nReaders) {
		leaseSN = hd.SN()
		h.client(2 + i).Unlock(hd) // leases stay cached
	}

	// Drain the cohort's delegation acks so their standalone RPCs cannot
	// land inside the measured window below.
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}

	opsBefore := h.srv.Stats.LockOps.Load()
	w := mustAcquire(t, h.client(1), res, NBW, rng)
	if got := h.srv.Stats.Gathers.Load(); got != 2 {
		t.Fatalf("Gathers = %d, want 2", got)
	}
	if w.SN() < leaseSN {
		t.Fatalf("gathered writer SN %d below cohort SN %d", w.SN(), leaseSN)
	}
	if ops := h.srv.Stats.LockOps.Load() - opsBefore; ops != 1 {
		t.Fatalf("gather cost %d server ops, want 1 (the lock RPC alone)", ops)
	}
	// Each grant pre-armed a handback: one lease per reader.
	if got := h.srv.Stats.LeaseGrants.Load(); got != 2*nReaders {
		t.Fatalf("LeaseGrants = %d after the second gather, want %d", got, 2*nReaders)
	}
	// Unlocking runs the pre-armed handback to the readers; wait for
	// its leases to land so shutdown sees a quiet system.
	recvd := func() int64 {
		var n int64
		for i := 0; i < nReaders; i++ {
			n += h.client(2 + i).Stats.LeasesRecv.Load()
		}
		return n
	}
	base := recvd()
	h.client(1).Unlock(w)
	waitFor(t, "handback leases landed", func() bool { return recvd() == base+nReaders })
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestReaderFanPartAfterCancelFlush: a reader gathered toward a writer
// wrote nothing, so it runs its cancel flush — which drops the pages its
// lease protected — before its part leaves. Sent first, the part could
// complete the writer's gather, and a later lease of the reader could
// be served those pages, older than the writer's data, before they were
// dropped.
func TestReaderFanPartAfterCancelFlush(t *testing.T) {
	const nReaders = 4
	h := newHOHarness(t, handoffPolicy(), 1+nReaders, true)
	res := ResourceID(34)
	rng := extent.New(0, 4096)

	h.client(1).Unlock(formHandback(t, h, res, rng, nReaders))
	for i, hd := range acquireCohort(t, h, res, rng, nReaders) {
		h.client(2 + i).Unlock(hd) // leases stay cached
	}
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}

	// Hold every cancel flush: the writer's gather must wait for them.
	gate := make(chan struct{})
	h.flusher.setGate(gate)
	var opened atomic.Bool
	type result struct {
		w     *Handle
		err   error
		early bool
	}
	done := make(chan result, 1)
	go func() {
		w, err := h.client(1).Acquire(context.Background(), res, NBW, rng)
		done <- result{w, err, !opened.Load()}
	}()
	time.Sleep(20 * time.Millisecond) // time for parts sent before their flush to land
	opened.Store(true)
	close(gate)
	r := <-done
	h.flusher.setGate(nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.early {
		t.Fatal("the writer's gather completed while the readers' cancel flushes were held")
	}
	h.client(1).Unlock(r.w)
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
}

// TestReaderFanRotation is the steady-state pattern of the readfan
// experiment: one writer and a reader cohort alternate rounds. After
// warm-up every rotation runs gather → write → broadcast with the
// writer's single lock RPC as the only server operation, so total
// LockOps stays near one per round instead of one per reader per round.
func TestReaderFanRotation(t *testing.T) {
	const nReaders = 4
	const rounds = 10
	p := handoffPolicy()
	p.HandoffReclaimInterval = 2 * time.Second // keep reclaim out of slow -race runs
	h := newHOHarness(t, p, 1+nReaders, true)
	res := ResourceID(35)
	rng := extent.New(0, 4096)
	ctx := context.Background()

	var lastW extent.SN
	for r := 0; r < rounds; r++ {
		w := mustAcquire(t, h.client(1), res, NBW, rng)
		if r > 0 && w.SN() <= lastW {
			t.Fatalf("round %d: writer SN %d not above previous %d", r, w.SN(), lastW)
		}
		lastW = w.SN()
		h.client(1).Unlock(w)

		var wg sync.WaitGroup
		leases := make([]*Handle, nReaders)
		for i := range leases {
			cl := h.client(2 + i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				hd, err := cl.Acquire(ctx, res, PR, rng)
				if err != nil {
					t.Errorf("round %d reader acquire: %v", r, err)
					return
				}
				leases[i] = hd
			}()
		}
		wg.Wait()
		if slices.Contains(leases, nil) {
			t.FailNow()
		}
		for i, hd := range leases {
			if hd.SN() < lastW {
				t.Fatalf("round %d: reader SN %d below writer SN %d", r, hd.SN(), lastW)
			}
			h.client(2 + i).Unlock(hd)
		}
	}

	if got := h.srv.Stats.Gathers.Load(); got < rounds/2 {
		t.Fatalf("Gathers = %d over %d rounds, want at least %d", got, rounds, rounds/2)
	}
	// Each gather pre-arms a handback lease per reader; the rotation
	// must actually run on those leases, not on server grants.
	if got := h.srv.Stats.LeaseGrants.Load(); got < int64(nReaders*rounds/2) {
		t.Fatalf("LeaseGrants = %d over %d rounds, want at least %d", got, rounds, nReaders*rounds/2)
	}
	// The server-RPC economy: the server path costs at least one lock
	// RPC per reader per round; delegation keeps the total near one per
	// round (writer locks plus round-one setup and stray timer acks).
	serverPath := int64(rounds * nReaders)
	if ops := h.srv.Stats.LockOps.Load(); ops >= serverPath {
		t.Fatalf("LockOps = %d, not below the %d of the server path", ops, serverPath)
	}
	for _, c := range h.clients {
		c.FlushHandoffAcks(ctx)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestReaderFanReclaimLostPropagation: the lead receives the handback
// but every propagation edge is lost, so the non-lead leases sit
// delegated until the reclaimer force-resolves them. Each owner gets
// the server's activation for a lease it never received and releases
// it at once, so the next writer is granted within a round trip or
// two, not after a reclaim period of its own, and none of the lost
// leases is left behind in the lock table.
func TestReaderFanReclaimLostPropagation(t *testing.T) {
	const nReaders = 4
	const reclaim = 20 * time.Millisecond
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), reclaim), 1+nReaders, true)
	res := ResourceID(37)
	rng := extent.New(0, 4096)

	w := formHandback(t, h, res, rng, nReaders)
	var lost []LockID // the pre-armed leases of every reader but the lead
	res0 := h.srv.lookup(res)
	res0.mu.Lock()
	for _, l := range res0.granted.list {
		if l.client > 2 {
			lost = append(lost, l.id)
		}
	}
	res0.mu.Unlock()
	if len(lost) != nReaders-1 {
		t.Fatalf("pre-armed non-lead leases = %v, want %d", lost, nReaders-1)
	}
	h.mu.Lock()
	h.dropLeases = true
	h.mu.Unlock()
	h.client(1).Unlock(w)

	waitFor(t, "lost tree edges reclaimed", func() bool {
		return h.srv.Stats.HandoffReclaims.Load() == nReaders-1
	})
	reclaimed := time.Now()
	if got := h.client(2).Stats.LeasesRecv.Load(); got != 1 {
		t.Fatalf("lead LeasesRecv = %d, want 1", got)
	}
	// Each owner releases the lease the server activated for it. The
	// next writer waits for that: one that races ahead of the releases
	// gathers the cohort, and a gather whose members part release and
	// part transfer waits out the reclaimer.
	inTable := func() (n int) {
		res0.mu.Lock()
		defer res0.mu.Unlock()
		for _, id := range lost {
			if res0.granted.get(id) != nil {
				n++
			}
		}
		return n
	}
	waitFor(t, "orphaned leases released", func() bool { return inTable() == 0 })
	if took := time.Since(reclaimed); took > reclaim/2 {
		t.Fatalf("orphaned leases released %v after the reclaim, want well under the %v reclaim interval", took, reclaim)
	}

	h.mu.Lock()
	h.dropLeases = false
	h.mu.Unlock()
	start := time.Now()
	w2 := mustAcquire(t, h.client(1), res, NBW, rng)
	if took := time.Since(start); took > reclaim/2 {
		t.Fatalf("next writer's acquire took %v, want well under the %v reclaim interval (an orphaned lease was never released)", took, reclaim)
	}
	if w2.SN() <= w.SN() {
		t.Fatalf("next writer SN %d not above %d", w2.SN(), w.SN())
	}
	if n := inTable(); n != 0 {
		t.Fatalf("%d force-resolved leases back in the table", n)
	}
	h.client(1).Unlock(w2)
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// gatherReaders has clients 2..nReaders+1 take PR locks over rng from
// the server and keep them cached, the cohort a writer's NBW acquire
// gathers. A reader listed in held keeps its hold, so its part leaves
// only once the test unlocks the returned handle.
func gatherReaders(t *testing.T, h *hoHarness, res ResourceID, rng extent.Extent, nReaders int, held int) *Handle {
	t.Helper()
	var keep *Handle
	for i := 0; i < nReaders; i++ {
		hd := mustAcquire(t, h.client(2+i), res, PR, rng)
		if 2+i == held {
			keep = hd
			continue
		}
		h.client(2 + i).Unlock(hd)
	}
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	return keep
}

// TestReaderFanMixedGather: a gather of two readers, one of which
// transfers its part peer-to-peer and one of which releases instead
// (its peer send fails). The server sends the writer the releasing
// member's part, so the writer's acquire returns within a round trip or
// two, not after the reclaimer's two periods.
func TestReaderFanMixedGather(t *testing.T) {
	const reclaim = 200 * time.Millisecond
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), reclaim), 3, true)
	res := ResourceID(38)
	rng := extent.New(0, 4096)

	gatherReaders(t, h, res, rng, 2, 0)
	h.mu.Lock()
	h.faults = map[ClientID]peerFault{3: sendRefused}
	h.mu.Unlock()
	start := time.Now()
	w := <-acquireAsync(t, h.client(1), res, NBW, rng)
	if w == nil {
		t.Fatal("writer's acquire failed")
	}
	if took := time.Since(start); took > reclaim/2 {
		t.Fatalf("mixed gather took %v, want well under the %v reclaim interval", took, reclaim)
	}
	if got := h.srv.Stats.Gathers.Load(); got != 1 {
		t.Fatalf("Gathers = %d, want 1", got)
	}
	h.mu.Lock()
	h.faults = nil
	h.mu.Unlock()
	h.client(1).Unlock(w)
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestReaderFanGatherCountsMembersOnce: a gather of three readers where
// one member's part lands and the member then releases too (its peer
// send reported an error after delivering), and a second member
// releases. The writer hears of the first member twice, from the member
// and from the server, and must count it once: its gather may not
// complete while the third member still holds its read lock.
func TestReaderFanGatherCountsMembersOnce(t *testing.T) {
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), 200*time.Millisecond), 4, true)
	res := ResourceID(39)
	rng := extent.New(0, 4096)

	held := gatherReaders(t, h, res, rng, 3, 4)
	h.mu.Lock()
	h.faults = map[ClientID]peerFault{2: sendLostAck, 3: sendRefused}
	h.mu.Unlock()
	done := acquireAsync(t, h.client(1), res, NBW, rng)

	// Both faulty members released: the server has sent the writer a part
	// for each, and the first member's own part landed before.
	res0 := func() *resource { return h.srv.lookup(res) }
	waitFor(t, "two members released", func() bool {
		r := res0()
		if r == nil {
			return false
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, l := range r.granted.list {
			if l.client == 1 && l.delegated && livePreds(r, l.id) == 1 {
				return true
			}
		}
		return false
	})
	select {
	case <-done:
		t.Fatal("the gather completed while its third member still holds its read lock")
	case <-time.After(50 * time.Millisecond):
	}

	h.mu.Lock()
	h.faults = nil
	h.mu.Unlock()
	h.client(4).Unlock(held) // the third member's part leaves now
	w := <-done
	if w == nil {
		t.Fatal("writer's acquire failed")
	}
	h.client(1).Unlock(w)
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestReaderFanFreezeResolvesBroadcast: freezing a slot for migration
// with a whole handback delegation outstanding (the writer's transfer
// to the lead was lost in flight) must force-resolve every lease: the
// export carries the cohort as plain granted locks above the writer's
// SN, and the sequencer stays monotonic at the importing master.
func TestReaderFanFreezeResolvesBroadcast(t *testing.T) {
	const nReaders = 3
	h := newHOHarness(t, reclaimEvery(handoffPolicy(), time.Hour), 1+nReaders, true) // the freeze, not the reclaimer, must resolve

	res := ridInSlot(t, 29, 0)
	h.srv.SetSlots(1, []partition.Slot{29})
	rng := extent.New(0, 4096)

	w := formHandback(t, h, res, rng, nReaders)
	h.mu.Lock()
	h.dropTransfers = true // the handback transfer to the lead is lost
	h.mu.Unlock()
	h.client(1).Unlock(w)
	// The cancel has accepted the transfer obligation once the handoff
	// counter moves; the message itself is lost.
	waitFor(t, "handback transfer sent", func() bool {
		return h.client(1).Stats.HandoffsSent.Load() == 1
	})

	reclaims := h.srv.Stats.HandoffReclaims.Load()
	exp, err := h.srv.FreezeExportSlot(29)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.srv.Stats.HandoffReclaims.Load() - reclaims; got != nReaders {
		t.Fatalf("freeze resolved %d delegations, want the %d leases", got, nReaders)
	}
	if len(exp.Resources) != 1 || len(exp.Resources[0].Locks) != nReaders {
		t.Fatalf("export = %+v, want one resource with %d locks", exp.Resources, nReaders)
	}
	var maxSN extent.SN
	for _, l := range exp.Resources[0].Locks {
		if l.Delegated || l.Mode != PR || l.Client == 1 {
			t.Fatalf("exported %+v, want a resolved reader lease", l)
		}
		if l.SN <= w.SN() {
			t.Fatalf("resolved lease SN %d not above writer SN %d", l.SN, w.SN())
		}
		maxSN = max(maxSN, l.SN)
	}

	dst := newBareEngine(handoffPolicy())
	exp.Epoch = 2
	if err := dst.Restore(exp); err != nil {
		t.Fatal(err)
	}
	// A compatible shared grant at the importing master must continue
	// the sequencer above the imported cohort.
	g, err := dst.Lock(context.Background(), Request{
		Resource: res, Client: 9, Mode: PR, Range: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.SN < maxSN {
		t.Fatalf("post-install SN %d below cohort SN %d", g.SN, maxSN)
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFanDisabledByDefault: no stock policy sets Handoff, which
// the fan-out path rides on, and with it off a writer/reader rotation
// must never stamp a gather.
func TestReaderFanDisabledByDefault(t *testing.T) {
	for _, p := range []Policy{SeqDLM(), Basic(), Lustre(), Datatype()} {
		if p.Handoff {
			t.Fatalf("policy %q enables Handoff by default", p.Name)
		}
	}
	h := newHOHarness(t, SeqDLM(), 4, true)
	res := ResourceID(41)
	rng := extent.New(0, 4096)
	for round := 0; round < 3; round++ {
		w := mustAcquire(t, h.client(1), res, NBW, rng)
		h.client(1).Unlock(w)
		for i := 0; i < 3; i++ {
			r := mustAcquire(t, h.client(2+i), res, PR, rng)
			h.client(2 + i).Unlock(r)
		}
	}
	if got := h.srv.Stats.Gathers.Load(); got != 0 {
		t.Fatalf("Gathers = %d with Handoff off, want 0", got)
	}
	if got := h.srv.Stats.LeaseGrants.Load(); got != 0 {
		t.Fatalf("LeaseGrants = %d with Handoff off, want 0", got)
	}
}
