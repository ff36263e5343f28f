package dlm

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
)

// The reader fan-out tests reuse the handoff harness (hoHarness) and
// its peer sender, exercising the full DESIGN.md §14 machinery:
// broadcast formation over a queued reader run, peer-to-peer
// propagation trees, cohort gathers back to a writer, reclaim of lost
// tree edges, and freeze/migration with broadcast delegations
// outstanding.

func fanPolicy() Policy {
	p := SeqDLM()
	p.Handoff = true
	p.ReaderFanout = true
	return p
}

// formBroadcast drives the harness into a broadcast delegation with
// nReaders reader acquires parked on it: client 1 holds the write lock,
// client 2 queues behind it (and is handed the lock), the readers
// (clients 3..) queue behind client 2's fresh lock, and the delegation
// ack scan stamps the broadcast. It returns client 2's held handle —
// unlocking it releases the broadcast transfer — and the channel the
// reader goroutines deliver their handles on.
func formBroadcast(t *testing.T, h *hoHarness, res ResourceID, rng extent.Extent, nReaders int) (*Handle, chan *Handle) {
	t.Helper()
	ctx := context.Background()

	w1 := mustAcquire(t, h.client(1), res, NBW, rng)

	w2ch := make(chan *Handle, 1)
	go func() {
		hd, err := h.client(2).Acquire(ctx, res, NBW, rng)
		if err != nil {
			t.Errorf("writer 2 acquire: %v", err)
			close(w2ch)
			return
		}
		w2ch <- hd
	}()
	waitFor(t, "writer 2 delegation stamped", func() bool { return h.srv.Stats.Handoffs.Load() == 1 })

	readers := make(chan *Handle, nReaders)
	for i := 0; i < nReaders; i++ {
		cl := h.client(3 + i)
		go func() {
			hd, err := cl.Acquire(ctx, res, PR, rng)
			if err != nil {
				t.Errorf("reader acquire: %v", err)
				close(readers)
				return
			}
			readers <- hd
		}()
	}
	waitFor(t, "readers queued", func() bool { return h.srv.QueueLen(res) == nReaders })

	// Hand the lock to writer 2, then confirm its delegation: the ack
	// scan finds the queued reader run behind a quiet fresh lock and
	// stamps the broadcast.
	h.client(1).Unlock(w1)
	w2, ok := <-w2ch
	if !ok {
		t.FailNow()
	}
	h.client(2).FlushHandoffAcks(ctx)
	waitFor(t, "broadcast stamped", func() bool { return h.srv.Stats.Broadcasts.Load() == 1 })
	return w2, readers
}

// TestReaderFanBroadcastTree: a queued run of readers behind one writer
// is granted as a single broadcast delegation, the displaced writer
// transfers the cohort to the lead reader, and the lead propagates the
// remaining leases peer-to-peer — every reader ends with the same SN,
// above the writer's.
func TestReaderFanBroadcastTree(t *testing.T) {
	const nReaders = 4
	h := newHOHarness(t, fanPolicy(), 2+nReaders, true)
	res := ResourceID(31)
	rng := extent.New(0, 4096)

	w2, readers := formBroadcast(t, h, res, rng, nReaders)
	wSN := w2.SN()
	h.client(2).Unlock(w2) // releases the broadcast transfer

	var got []*Handle
	for i := 0; i < nReaders; i++ {
		hd, ok := <-readers
		if !ok {
			t.FailNow()
		}
		got = append(got, hd)
	}
	leaseSN := got[0].SN()
	for _, hd := range got {
		if hd.SN() != leaseSN {
			t.Fatalf("cohort SNs differ: %d vs %d", hd.SN(), leaseSN)
		}
		if hd.SN() <= wSN {
			t.Fatalf("lease SN %d not above displaced writer's %d", hd.SN(), wSN)
		}
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
		h.client(3 + i).Unlock(hd)
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

// TestReaderFanGatherToWriter: the reverse edge — a writer conflicting
// with a whole delegated reader cohort gathers it in one stamp; each
// reader transfers its part directly to the writer, and the grant
// pre-arms the next broadcast. The gather costs the server exactly the
// one lock RPC.
func TestReaderFanGatherToWriter(t *testing.T) {
	const nReaders = 4
	h := newHOHarness(t, fanPolicy(), 2+nReaders, true)
	res := ResourceID(33)
	rng := extent.New(0, 4096)

	w2, readers := formBroadcast(t, h, res, rng, nReaders)
	h.client(2).Unlock(w2)
	var leaseSN extent.SN
	for i := 0; i < nReaders; i++ {
		hd, ok := <-readers
		if !ok {
			t.FailNow()
		}
		leaseSN = hd.SN()
		h.client(3 + i%nReaders).Unlock(hd) // leases stay cached
	}

	// Drain the cohort's delegation acks so their standalone RPCs cannot
	// land inside the measured window below.
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}

	opsBefore := h.srv.Stats.LockOps.Load()
	w := mustAcquire(t, h.client(1), res, NBW, rng)
	if got := h.srv.Stats.Gathers.Load(); got != 1 {
		t.Fatalf("Gathers = %d, want 1", got)
	}
	if w.SN() < leaseSN {
		t.Fatalf("gathered writer SN %d below cohort SN %d", w.SN(), leaseSN)
	}
	if ops := h.srv.Stats.LockOps.Load() - opsBefore; ops != 1 {
		t.Fatalf("gather cost %d server ops, want 1 (the lock RPC alone)", ops)
	}
	// The grant pre-armed the handback cohort: one lease per reader.
	if got := h.srv.Stats.LeaseGrants.Load(); got != 2*nReaders {
		t.Fatalf("LeaseGrants = %d after gather, want %d", got, 2*nReaders)
	}
	// Unlocking runs the pre-armed broadcast back to the readers; wait
	// for the handback leases to land so shutdown sees a quiet system.
	// (Formation leases completing parked acquires do not count as
	// LeasesRecv, so measure the handback as a delta.)
	recvd := func() int64 {
		var n int64
		for i := 0; i < nReaders; i++ {
			n += h.client(3 + i).Stats.LeasesRecv.Load()
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

// TestReaderFanRotation is the steady-state pattern of the readfan
// experiment: one writer and a reader cohort alternate rounds. After
// warm-up every rotation runs gather → write → broadcast with the
// writer's single lock RPC as the only server operation, so total
// LockOps stays near one per round instead of one per reader per round.
func TestReaderFanRotation(t *testing.T) {
	const nReaders = 4
	const rounds = 10
	p := fanPolicy()
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

// TestReaderFanReclaimLostPropagation: the lead receives the broadcast
// but every propagation edge is lost, so the non-lead leases sit
// delegated until the reclaimer force-resolves them — the parked reader
// acquires then complete through server-sent activations.
func TestReaderFanReclaimLostPropagation(t *testing.T) {
	const nReaders = 4
	h := newHOHarness(t, fanPolicy(), 2+nReaders, true)
	h.srv.SetHandoffTimeout(20 * time.Millisecond)
	res := ResourceID(37)
	rng := extent.New(0, 4096)

	w2, readers := formBroadcast(t, h, res, rng, nReaders)
	h.mu.Lock()
	h.dropLeases = true
	h.mu.Unlock()
	h.client(2).Unlock(w2)

	for i := 0; i < nReaders; i++ {
		if _, ok := <-readers; !ok {
			t.FailNow()
		}
	}
	if got := h.srv.Stats.HandoffReclaims.Load(); got == 0 {
		t.Fatal("HandoffReclaims = 0, want reclaims for the lost tree edges")
	}
	for _, c := range h.clients {
		c.FlushHandoffAcks(context.Background())
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestReaderFanFreezeResolvesBroadcast: freezing a slot for migration
// with a whole broadcast delegation outstanding (the cohort transfer
// was lost in flight) must force-resolve every lease: the parked reader
// acquires complete, the export carries the cohort as plain granted
// locks, and the sequencer stays monotonic at the importing master.
func TestReaderFanFreezeResolvesBroadcast(t *testing.T) {
	const nReaders = 3
	h := newHOHarness(t, fanPolicy(), 2+nReaders, true)
	h.srv.SetHandoffTimeout(time.Hour) // the freeze, not the reclaimer, must resolve

	res := ridInSlot(t, 29, 0)
	h.srv.SetSlots(1, []partition.Slot{29})
	rng := extent.New(0, 4096)

	w2, readers := formBroadcast(t, h, res, rng, nReaders)
	h.mu.Lock()
	h.dropTransfers = true // the broadcast transfer to the lead is lost
	h.mu.Unlock()
	h.client(2).Unlock(w2)
	// The cancel has accepted the transfer obligation once Unlock
	// returns and the handoff counter moves; the message itself is lost.
	waitFor(t, "broadcast transfer sent", func() bool {
		return h.client(2).Stats.HandoffsSent.Load() == 1
	})

	exp, err := h.srv.FreezeExportSlot(29)
	if err != nil {
		t.Fatal(err)
	}
	var maxSN extent.SN
	for i := 0; i < nReaders; i++ {
		hd, ok := <-readers
		if !ok {
			t.FailNow()
		}
		if hd.SN() <= w2.SN() {
			t.Fatalf("resolved lease SN %d not above writer SN %d", hd.SN(), w2.SN())
		}
		if hd.SN() > maxSN {
			maxSN = hd.SN()
		}
	}
	if len(exp.Resources) != 1 || len(exp.Resources[0].Locks) != nReaders {
		t.Fatalf("export = %+v, want one resource with %d locks", exp.Resources, nReaders)
	}

	dst := newBareEngine(fanPolicy())
	if err := dst.InstallSlot(exp, 2); err != nil {
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

// TestReaderFanDisabledByDefault: no stock policy enables the fan-out
// path, and with it off a writer/reader rotation must never stamp a
// broadcast or gather — the engine behaves exactly as before.
func TestReaderFanDisabledByDefault(t *testing.T) {
	for _, p := range []Policy{SeqDLM(), Basic(), Lustre(), Datatype()} {
		if p.ReaderFanout {
			t.Fatalf("policy %q enables ReaderFanout by default", p.Name)
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
	if got := h.srv.Stats.Broadcasts.Load(); got != 0 {
		t.Fatalf("Broadcasts = %d with ReaderFanout off, want 0", got)
	}
	if got := h.srv.Stats.Gathers.Load(); got != 0 {
		t.Fatalf("Gathers = %d with ReaderFanout off, want 0", got)
	}
	if got := h.srv.Stats.LeaseGrants.Load(); got != 0 {
		t.Fatalf("LeaseGrants = %d with ReaderFanout off, want 0", got)
	}
}
