package dlm

import (
	"context"
	"maps"
	"slices"
	"time"
)

// Client side of the handoff fast path (DESIGN.md §13). The holder of
// a stamped revocation transfers the lock to the next owner over the
// PeerSender; the recipient's delegated acquire waits for the
// transfer's arrival (OnTransfer) and confirms the delegation back to
// the server asynchronously — piggybacked on its next lock request
// for the resource when one comes soon enough, or flushed standalone
// by a short timer otherwise.

// ackFlushDelay bounds how long a delegation ack may sit queued on the
// lazy path before it is flushed standalone. The timer only ever covers
// acks nobody is waiting for: a waiter blocked on one makes the server
// solicit it (OnAckSolicit), so no grant depends on this delay. It is
// long enough that a busy exchange pattern always piggybacks — on the
// next lock request, or on the next peer transfer when a fan rotation
// keeps the client off the server entirely — and short enough that the
// server's reclaimer (which nudges at half the reclaim interval) never
// fires for a healthy idle client. A quarter of the reclaim interval
// sits between those bounds at every interval the policy picks.
func (c *LockClient) ackFlushDelay() time.Duration {
	return c.policy.ReclaimInterval() / 4
}

// Transfer is one transfer message (wire.MHandoff), the one way a
// delegated lock reaches its owner:
//   - a part names the delegated Lock it is for and the Member lock it
//     retires, so that a gathering writer counts each cohort member
//     once; only a write lock's part to a writer leaves Member zero (a
//     part the server covers for a predecessor that released names it
//     too);
//   - a Cohort hands the receiver read leases, its own first: a
//     gathering writer's handback to the lead, or one hop of the tree
//     that propagates the rest (DESIGN.md §14);
//   - the server's activation of the Lock it resolved carries the
//     lock's lease as a cohort of one: the lock is the owner's whatever
//     parts are missing, and it installs whether or not an acquire
//     waits for it.
//
// Acks piggybacks delegation confirmations for the receiver to forward
// to the server on its next lock request.
type Transfer struct {
	Lock   LockID
	Member LockID
	Acks   []LockID
	Cohort *Stamp
}

// PeerSender is the client-to-client transport. SendTransfer delivers t
// to the peer and returns once the peer accepted it. On an error the
// holder of a part falls back to releasing through the server; a
// cohort's leases stay delegated server-side, and the reclaimer
// resolves them.
type PeerSender interface {
	SendTransfer(ctx context.Context, peer ClientID, res ResourceID, t Transfer) error
}

// HandoffAcker is the ServerConn extension for standalone delegation
// acks: one call confirms every listed delegation of res in one round
// trip. Connections that do not implement it leave acks queued for
// piggybacking on the next lock request.
type HandoffAcker interface {
	HandoffAck(ctx context.Context, res ResourceID, ids []LockID) error
}

// peerSenderBox wraps the PeerSender interface for atomic publication.
type peerSenderBox struct{ s PeerSender }

// SetPeerSender installs (or, with nil, removes) the client-to-client
// transport. Without one, stamped cancels fall back to releasing
// through the server.
func (c *LockClient) SetPeerSender(s PeerSender) {
	if s == nil {
		c.peer.Store(nil)
		return
	}
	c.peer.Store(&peerSenderBox{s: s})
}

// OnTransfer records the arrival of a transfer message — from a peer,
// or from the server — and ships the rest of a cohort down the lease
// tree. Duplicates (the two paths racing) are idempotent: a part or a
// lease for a lock that awaits none, or is already gone, is dropped.
func (c *LockClient) OnTransfer(res ResourceID, t Transfer) {
	c.requeueAcks(res, t.Acks)
	ev := clientEvent{kind: cevArrive, id: t.Lock, member: t.Member, stamp: t.Cohort}
	if t.Cohort != nil {
		ev.id = t.Cohort.Leases[0].LockID
	}
	c.run(res, ev)
	if t.Cohort != nil {
		c.propagate(res, t.Cohort)
	}
}

// propagate ships the rest of an arrived cohort down the read-lease
// propagation tree (DESIGN.md §14): a gather writer hands its cohort to
// the lead, whose lease is the first, and each node splits the rest
// into at most Fanout contiguous, near-equal subtrees, sent to the
// owner of each subtree's first lease, which recurses. A subtree whose
// send fails, or a cohort with no propagation path, stays delegated
// server-side, and the reclaimer resolves its leases.
func (c *LockClient) propagate(res ResourceID, g *Stamp) {
	rest, box := g.Leases[1:], c.peer.Load()
	if box == nil {
		return
	}
	for k := min(g.Fanout, len(rest)); k > 0; k-- {
		n := (len(rest) + k - 1) / k
		sub := &Stamp{Mode: g.Mode, Range: g.Range, Fanout: g.Fanout, Leases: rest[:n]}
		rest = rest[n:]
		c.clk.Go(func() {
			if box.s.SendTransfer(c.baseCtx, sub.Leases[0].Owner, res, Transfer{Cohort: sub}) == nil {
				c.Stats.LeasesSent.Add(1)
			}
		})
	}
}

// transfer is the cancel path of a stamped lock (DESIGN.md §13): the
// lock leaves this client entirely, so there is no downgrade to run —
// flush the dirty data written under it, then hand it to the next owner
// directly. Only if no peer path exists (or the send fails) release
// through the server, which sends the new owner this lock's part itself.
//
// Flush-vs-transfer ordering mirrors early grant (§III-A1): a write-only
// successor (no implicit read) may own the lock while this holder's
// dirty data is still in flight — its writes carry a higher SN, so the
// extent cache resolves the overlap — which keeps the flush off the
// successor's critical path. A reading successor (PR/PW) must find the
// data on the data servers, so for it the flush completes before the
// transfer. A holder that never wrote has nothing to flush, and its
// cancel path drops the pages the lock protected before the transfer:
// otherwise a later lock of this client, ordered after the successor's
// writes, could read them in the meantime. Either way the flush
// obligation runs exactly once, here.
func (c *LockClient) transfer(ctx context.Context, conn ServerConn, h *Handle, stamp *Stamp, wrote bool) {
	res := h.res
	deferFlush := wrote && !stamp.Mode.CanRead()
	if !deferFlush {
		c.flusher.FlushForCancel(ctx, res, h.rng, h.sn)
	}
	c.run(res, clientEvent{kind: cevReleasing, h: h})
	t := Transfer{Lock: stamp.Leases[0].LockID}
	if stamp.Fanout > 0 {
		// A handback: the cohort's lead installs its lease and
		// propagates the rest (DESIGN.md §14).
		t = Transfer{Cohort: stamp}
	} else if !stamp.MustFlush || !stamp.Mode.IsWrite() {
		// The successor may be gathering a cohort: name this member, so
		// it counts each member once, and piggyback the queued
		// delegation acks on the part — the writer forwards them on its
		// next lock request, so reader acks cost no server RPC. A write
		// lock passing to a writer travels bare.
		t.Member, t.Acks = h.id, c.takeAcks(res)
	}
	sent := false
	if box := c.peer.Load(); box != nil && box.s != nil {
		if err := box.s.SendTransfer(ctx, stamp.Leases[0].Owner, res, t); err == nil {
			// Confirmation is the receiver's job: every lease owner (the
			// lead included) acks its own delegation on install, so the
			// server's reclaim entry stays live until the lease has
			// demonstrably landed.
			sent = true
			c.Stats.HandoffsSent.Add(1)
		}
	}
	if deferFlush {
		// The release fallback below must stay behind the flush: a fully
		// released write lock's data is on the data servers by the time
		// the server may grant readers.
		c.flusher.FlushForCancel(ctx, res, h.rng, h.sn)
	}
	if !sent {
		c.requeueAcks(res, t.Acks)
		conn.Release(ctx, res, h.id)
	}
}

// queueAck queues the confirmation of a delegation that just installed
// for the server mastering res. Nobody waiting, it takes the lazy path:
// the next lock request drains it, or the client's flush timer does. If
// the server already solicited it — a waiter is blocked on this very
// ack — it leaves now, with whatever else is queued for res. Caller
// holds c.st.mu.
func (c *LockClient) queueAck(res ResourceID, id LockID, fx *clientEffects) {
	c.st.pendingAcks[res] = append(c.st.pendingAcks[res], id)
	k := lockKey{res, id}
	if n := c.st.notes[k]; n.solicited {
		n.solicited = false
		c.st.setNote(k, n)
		fx.send, fx.acks = true, c.st.popAcks(res)
		return
	}
	if c.st.ackTimer == nil {
		c.st.ackTimer = c.clk.AfterFunc(c.ackFlushDelay(), func() { c.FlushHandoffAcks(c.baseCtx) })
	}
}

// popAcks pops the queued acks for res. When that empties the queue, the
// flush timer is disarmed: leaving it running would fire it mid-way
// into the next batch's window and flush acks standalone that the next
// request or transfer was about to carry for free. Caller holds st.mu.
func (st *clientState) popAcks(res ResourceID) []LockID {
	acks := st.pendingAcks[res]
	if len(acks) > 0 {
		delete(st.pendingAcks, res)
	}
	if len(st.pendingAcks) == 0 && st.ackTimer != nil {
		st.ackTimer.Stop()
		st.ackTimer = nil
	}
	return acks
}

// dropAck removes the queued ack of lock id of res, if it is queued,
// disarming the flush timer when that empties the queue (popAcks).
// Caller holds st.mu.
func (st *clientState) dropAck(res ResourceID, id LockID) {
	acks := st.pendingAcks[res]
	switch i := slices.Index(acks, id); {
	case i < 0:
	case len(acks) > 1:
		st.pendingAcks[res] = slices.Delete(acks, i, i+1)
	default:
		st.popAcks(res)
	}
}

// takeAcks pops the queued acks for res, to piggyback on a lock request
// or a peer transfer. The caller must re-queue them if that fails.
func (c *LockClient) takeAcks(res ResourceID) []LockID {
	var fx clientEffects
	c.do(res, &clientEvent{kind: cevTakeAcks}, &fx)
	return fx.acks
}

// requeueAcks returns acks taken by a lock request that failed, or
// whose connection cannot send them standalone; they wait for the next
// lock request. Duplicate delivery is harmless: the server ignores acks
// for already-confirmed delegations.
func (c *LockClient) requeueAcks(res ResourceID, acks []LockID) {
	if len(acks) > 0 {
		c.run(res, clientEvent{kind: cevRequeueAcks, ids: acks})
	}
}

// OnAckSolicit handles the server's request to confirm delegated lock
// id now: a waiter there is blocked on nothing but this ack. If the
// transfer has installed, the ack leaves at once; if it is still on its
// way, it leaves the moment the lock installs. A lock already gone from
// this client is ignored.
func (c *LockClient) OnAckSolicit(res ResourceID, id LockID) {
	c.run(res, clientEvent{kind: cevSolicit, id: id})
}

// sendAcks sends the given acks standalone, one RPC per resource, in
// ascending resource order: each send is an RPC whose timing
// deterministic virtual runs must not let depend on map iteration
// order. Acks whose connection is no HandoffAcker are re-queued for the
// next lock request; the server's reclaim timer covers the pathological
// case where none ever comes.
func (c *LockClient) sendAcks(ctx context.Context, pending map[ResourceID][]LockID) {
	for _, res := range slices.Sorted(maps.Keys(pending)) {
		ids := pending[res]
		if ha, ok := c.router(res).(HandoffAcker); ok {
			ha.HandoffAck(ctx, res, ids)
		} else {
			c.requeueAcks(res, ids)
		}
	}
}

// FlushHandoffAcks empties the lazy ack queue, disarms its timer and
// sends every ack it held standalone. It is the lazy path's timer, and
// the shutdown barrier runs it so the server confirms outstanding
// delegations before the client goes quiet.
func (c *LockClient) FlushHandoffAcks(ctx context.Context) {
	var fx clientEffects
	c.do(0, &clientEvent{kind: cevDrainAcks}, &fx)
	c.sendAcks(ctx, fx.pending)
}
