package dlm

import (
	"context"
	"strings"
	"testing"
	"time"

	"ccpfs/internal/extent"
)

// Demand-driven delegation acks (DESIGN.md §13): a waiter blocked on
// nothing but an unconfirmed delegation makes the server solicit the
// ack, and the owner answers at once or at install. These tests give
// the lazy path a one-minute reclaim interval — a quarter of it, the
// flush timer, is far past waitFor's patience — so every ack they see
// arrive was solicited.

func solicitPolicy() Policy {
	p := handoffPolicy()
	p.HandoffReclaimInterval = time.Minute
	return p
}

// acquireAsync runs an acquire on its own goroutine and delivers the
// handle (or closes the channel on error).
func acquireAsync(t *testing.T, c *LockClient, res ResourceID, m Mode, rng extent.Extent) chan *Handle {
	t.Helper()
	ch := make(chan *Handle, 1)
	go func() {
		hd, err := c.Acquire(context.Background(), res, m, rng)
		if err != nil {
			t.Errorf("client %d acquire: %v", c.ID(), err)
			close(ch)
			return
		}
		ch <- hd
	}()
	return ch
}

// TestAckSolicitBeforeTransfer is the cold start of a read fan in
// miniature: the first reader takes the writer's lock by handoff, the
// second blocks behind the handed-off writer lock, and the server
// solicits the first reader's ack while the writer is still flushing.
// The solicitation must wait at the client — acking a transfer that has
// not arrived would retire a predecessor that still owns dirty data —
// and the ack must leave the moment the transfer installs.
func TestAckSolicitBeforeTransfer(t *testing.T) {
	h := newHOHarness(t, solicitPolicy(), 3, true)
	tr := NewTracer(64)
	h.srv.SetTracer(tr)
	res := ResourceID(7)
	rng := extent.New(0, 4096)

	w := mustAcquire(t, h.client(1), res, NBW, rng)
	gate := make(chan struct{})
	h.flusher.setGate(gate) // the writer's flush-before-transfer stalls here
	h.client(1).Unlock(w)

	r1 := acquireAsync(t, h.client(2), res, PR, rng)
	waitFor(t, "reader 1 delegation stamped", func() bool { return h.srv.Stats.Handoffs.Load() == 1 })
	r2 := acquireAsync(t, h.client(3), res, PR, rng)
	waitFor(t, "ack solicited", func() bool { return h.srv.Stats.AckSolicits.Load() == 1 })

	// The solicited window: transfer in flight, ack withheld, waiter
	// still queued, table still consistent.
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatalf("invariants in the solicited window: %v", err)
	}
	if n := h.srv.Stats.HandoffAcks.Load(); n != 0 {
		t.Fatalf("HandoffAcks = %d before the transfer arrived", n)
	}
	if n := h.client(2).Stats.SolicitedAcks.Load(); n != 0 {
		t.Fatalf("client 2 answered the solicitation before its transfer arrived")
	}
	if n := h.srv.QueueLen(res); n != 1 {
		t.Fatalf("QueueLen = %d, want reader 2 still queued", n)
	}

	close(gate)
	h1, ok := <-r1
	if !ok {
		t.FailNow()
	}
	h2, ok := <-r2
	if !ok {
		t.FailNow()
	}
	if h1.SN() != h2.SN() || h1.SN() <= w.SN() {
		t.Fatalf("reader SNs %d, %d; writer SN %d", h1.SN(), h2.SN(), w.SN())
	}
	if n := h.client(2).Stats.SolicitedAcks.Load(); n != 1 {
		t.Fatalf("client 2 SolicitedAcks = %d, want 1", n)
	}
	if n := h.srv.Stats.AckSolicits.Load(); n != 1 {
		t.Fatalf("AckSolicits = %d, want exactly one per delegation", n)
	}
	if n := h.srv.Stats.HandoffReclaims.Load(); n != 0 {
		t.Fatalf("HandoffReclaims = %d", n)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The trace answers "why was reader 2 waiting": blocked by the
	// writer's lock, retired only by reader 1's confirmation.
	var ev *Event
	for _, e := range tr.Events() {
		if e.Kind == EvAckSolicit {
			e := e
			ev = &e
		}
	}
	if ev == nil {
		t.Fatalf("no ack-solicit event in trace:\n%s", tr.Dump())
	}
	if ev.Client != 3 || ev.Lock != w.ID() || ev.Succ != h1.ID() || ev.SuccClient != 2 {
		t.Fatalf("ack-solicit event = %v, want waiter 3 blocked by %d, solicited %d@client2", ev, w.ID(), h1.ID())
	}
	if !strings.Contains(ev.String(), "blocked-by=") {
		t.Fatalf("ack-solicit event renders as %q", ev)
	}
	h.client(2).Unlock(h1)
	h.client(3).Unlock(h2)
}

// TestAckSolicitStale covers solicitations that find nothing to do: one
// for a lock already handed on (tombstoned) is dropped without marking
// anything, and one for a delegation the server already confirmed makes
// the client re-ack, which the server ignores.
func TestAckSolicitStale(t *testing.T) {
	h := newHOHarness(t, solicitPolicy(), 2, true)
	res := ResourceID(8)
	rng := extent.New(0, 4096)

	w := mustAcquire(t, h.client(1), res, NBW, rng)
	h.client(1).Unlock(w)
	r := mustAcquire(t, h.client(2), res, PR, rng) // handoff; ack queued lazily
	waitFor(t, "writer lock handed on", func() bool { return h.client(1).CachedLocks(res) == 0 })

	ops := h.srv.Stats.LockOps.Load()
	h.client(1).OnAckSolicit(res, w.ID())
	st := &h.client(1).st
	st.mu.Lock()
	marked := 0
	for _, n := range st.notes {
		if n.solicited {
			marked++
		}
	}
	st.mu.Unlock()
	if marked != 0 || h.client(1).Stats.SolicitedAcks.Load() != 0 {
		t.Fatalf("solicit for a tombstoned lock: marked=%d solicited acks=%d", marked, h.client(1).Stats.SolicitedAcks.Load())
	}

	// Installed, ack still queued: the solicit drains the queue.
	h.client(2).OnAckSolicit(res, r.ID())
	waitFor(t, "solicited ack confirmed", func() bool { return h.srv.Stats.HandoffAcks.Load() == 1 })
	if n := h.srv.GrantedCount(res); n != 1 {
		t.Fatalf("GrantedCount = %d after the ack retired the writer lock, want 1", n)
	}

	// Confirmed already: the duplicate reaches the server and changes nothing.
	releases := h.srv.Stats.Releases.Load()
	h.client(2).OnAckSolicit(res, r.ID())
	waitFor(t, "duplicate ack delivered", func() bool { return h.srv.Stats.LockOps.Load() == ops+2 })
	if a, rel, n := h.srv.Stats.HandoffAcks.Load(), h.srv.Stats.Releases.Load(), h.srv.GrantedCount(res); a != 1 || rel != releases || n != 1 {
		t.Fatalf("duplicate ack changed server state: acks=%d releases=%d (was %d) granted=%d", a, rel, releases, n)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.client(2).Unlock(r)
}

// TestAckSolicitAfterForward: a reader transferring toward a gathering
// writer forwards its queued acks with the part, so its own queue is
// empty while the server still sees the lease unconfirmed. A solicit
// arriving then must still be answered — the writer may sit on the
// forwarded ack until its next lock request.
func TestAckSolicitAfterForward(t *testing.T) {
	h := newHOHarness(t, solicitPolicy(), 2, true)
	res := ResourceID(9)
	rng := extent.New(0, 4096)

	w := mustAcquire(t, h.client(1), res, NBW, rng)
	h.client(1).Unlock(w)
	r := mustAcquire(t, h.client(2), res, PR, rng)

	fwd := h.client(2).takeAcks(res) // what cancel() forwards with a gather part
	if len(fwd) != 1 || fwd[0] != r.ID() {
		t.Fatalf("forwarded acks = %v, want [%d]", fwd, r.ID())
	}
	if n := h.srv.Stats.HandoffAcks.Load(); n != 0 {
		t.Fatalf("HandoffAcks = %d before any ack was sent", n)
	}
	h.client(2).OnAckSolicit(res, r.ID())
	waitFor(t, "re-sent ack confirmed", func() bool { return h.srv.Stats.HandoffAcks.Load() == 1 })
	if n := h.client(2).Stats.SolicitedAcks.Load(); n != 1 {
		t.Fatalf("SolicitedAcks = %d, want 1", n)
	}
	// The forwarded copy arriving later is a harmless duplicate.
	h.srv.HandoffAck(res, fwd[0])
	if n := h.srv.Stats.HandoffAcks.Load(); n != 1 {
		t.Fatalf("HandoffAcks = %d after the duplicate", n)
	}
	h.client(2).Unlock(r)
}

// TestAckSolicitHoldFire is case (b): the conflict is itself an
// unconfirmed delegation that cannot be stamped onward (the waiter's
// upgrade makes it a multi-lock conflict), so tryGrant holds its
// revocation until the ack lands. The server must solicit that ack
// rather than wait out the owner's flush timer.
func TestAckSolicitHoldFire(t *testing.T) {
	h := newHOHarness(t, solicitPolicy(), 3, true)
	res := ResourceID(10)
	lo, hi := extent.New(0, 4096), extent.New(4096, 8192)

	// Client 3 pins a quiet lock on the upper half so client 1's
	// whole-range request below has two conflicts and cannot be stamped.
	top := mustAcquire(t, h.client(3), res, NBW, hi)
	w := mustAcquire(t, h.client(1), res, NBW, lo)
	h.client(1).Unlock(w)
	d := mustAcquire(t, h.client(2), res, NBW, lo) // delegated to client 2, ack lazy
	if n := h.srv.Stats.Handoffs.Load(); n != 1 {
		t.Fatalf("Handoffs = %d, want the lower half delegated", n)
	}

	all := acquireAsync(t, h.client(1), res, NBW, extent.New(0, 8192))
	waitFor(t, "delegation ack solicited", func() bool { return h.srv.Stats.AckSolicits.Load() == 1 })
	h.client(2).Unlock(d)
	h.client(3).Unlock(top)
	hd, ok := <-all
	if !ok {
		t.FailNow()
	}
	if n := h.client(2).Stats.SolicitedAcks.Load(); n != 1 {
		t.Fatalf("client 2 SolicitedAcks = %d, want 1", n)
	}
	if n := h.srv.Stats.HandoffReclaims.Load(); n != 0 {
		t.Fatalf("HandoffReclaims = %d", n)
	}
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h.client(1).Unlock(hd)
}

// TestNoSolicitInSteadyExchange: chain stamping never leaves a waiter
// blocked behind a delegation, so a handoff ping-pong solicits nothing
// and keeps its one server RPC per exchange.
func TestNoSolicitInSteadyExchange(t *testing.T) {
	h := newHOHarness(t, handoffPolicy(), 2, true)
	res := ResourceID(11)
	rng := extent.New(0, 4096)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		c := h.client(1 + i%2)
		c.Unlock(mustAcquire(t, c, res, NBW, rng))
	}
	if n := h.srv.Stats.AckSolicits.Load(); n != 0 {
		t.Fatalf("AckSolicits = %d in a steady ping-pong, want 0", n)
	}
	if ops := h.srv.Stats.LockOps.Load(); ops > rounds+2 {
		t.Fatalf("LockOps = %d for %d exchanges, want about one per exchange", ops, rounds)
	}
}
