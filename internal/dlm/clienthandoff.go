package dlm

import (
	"context"
	"slices"
	"sync"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// Client side of the handoff fast path (DESIGN.md §13). The holder of
// a stamped revocation transfers the lock to the next owner over the
// PeerSender; the recipient blocks its delegated acquire on the
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
//   - a Final activation is the server's: it resolved the delegation,
//     so the lock is the owner's whatever parts are missing;
//   - a Cohort hands the receiver read leases, its own first: a
//     gathering writer's handback to the lead, or one hop of the tree
//     that propagates the rest (DESIGN.md §14).
//
// Acks piggybacks delegation confirmations for the receiver to forward
// to the server on its next lock request.
type Transfer struct {
	Lock   LockID
	Member LockID
	Final  bool
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

// transferWaiter collects the parts of one delegated lock's transfer,
// from the first part or the wait for it, whichever comes first — parts
// may race ahead of the delegated grant reply. It counts parts by the
// cohort member each names, so a member whose part arrived from it and,
// after its release, from the server counts once. A server-sent
// activation (final) completes the transfer outright: the server
// already resolved whatever parts were missing.
//
// Records are recycled (transferWaiters): ch is a one-slot channel that
// the one completer — the step that deletes the record from
// pendingHandoffs — sends on once, and waitTransfer puts the record back
// after it has received that send, or after deleting the record itself,
// when no completer ever will. The completer does not touch the record
// after the send.
type transferWaiter struct {
	// need is the number of distinct parts that complete the transfer:
	// one, or one per member of a gathered cohort. Zero until the wait
	// names it.
	need  int
	final bool
	got   []LockID // the members whose parts arrived
	ch    chan struct{}
	// The delegated grant being waited on, retained so Export can
	// report the promised lock during crash takeover: the waiter has no
	// Handle yet, and without the record the successor master would
	// never learn the lock exists.
	mode Mode
	rng  extent.Extent
	sn   extent.SN
}

// part counts the part of member, once per member, or a final
// activation, and reports whether the transfer is complete.
func (tw *transferWaiter) part(member LockID, final bool) bool {
	if final {
		tw.final = true
	} else if !slices.Contains(tw.got, member) {
		tw.got = append(tw.got, member)
	}
	return tw.done()
}

// done reports whether a waited-for transfer has every part it needs.
func (tw *transferWaiter) done() bool {
	return tw.need > 0 && (tw.final || len(tw.got) >= tw.need)
}

// OnTransfer records the arrival of a transfer message — from a peer,
// or from the server. Duplicates (the two paths racing) are
// idempotent: a part for a lock already installed or already gone,
// and a lease already installed or gone, are dropped.
func (c *LockClient) OnTransfer(res ResourceID, t Transfer) {
	c.requeueAcks(res, t.Acks)
	if t.Cohort == nil {
		c.run(res, clientEvent{kind: cevPart, id: t.Lock, member: t.Member, final: t.Final})
	} else {
		c.receiveCohort(res, t.Cohort)
	}
}

// waitTransfer blocks a delegated acquire until its lock's transfer
// arrives — all parts of it, for a gather.
func (c *LockClient) waitTransfer(ctx context.Context, res ResourceID, g Grant) error {
	var fx clientEffects
	c.do(res, &clientEvent{kind: cevWait, id: g.LockID, mode: g.Mode, sn: g.SN, rng: g.Range, parts: g.GatherParts}, &fx)
	tw := fx.tw
	if tw == nil {
		return nil
	}
	if _, _, err := sim.Recv(ctx, c.clk, tw.ch, c.baseCtx.Done(), time.Time{}); err == nil {
		tw.recycle()
		return nil
	}
	var abort clientEffects
	if c.do(res, &clientEvent{kind: cevWaitAbort, id: g.LockID}, &abort); abort.ok {
		tw.recycle()
		if err := ctx.Err(); err != nil {
			return wire.FromContext(err)
		}
		return wire.ErrShuttingDown
	}
	// The transfer raced the abort and won (its step deleted the wait
	// first); take the send and use the lock.
	<-tw.ch
	tw.recycle()
	return nil
}

// transferWaiters recycles transferWaiter records; see transferWaiter.
var transferWaiters = sync.Pool{New: func() any { return &transferWaiter{ch: make(chan struct{}, 1)} }}

// complete ends tw's wait. The caller's step has just deleted tw from
// pendingHandoffs, which makes it the one completer. tw may be recycled
// once the send lands; sim.Send wakes its own copy of the channel.
func (tw *transferWaiter) complete(clk sim.Clock) { sim.Send(clk, tw.ch, struct{}{}) }

// recycle clears tw, keeping its (empty) channel and its member array,
// and pools it.
func (tw *transferWaiter) recycle() {
	*tw = transferWaiter{ch: tw.ch, got: tw.got[:0]}
	transferWaiters.Put(tw)
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
	i := slices.Index(acks, id)
	if i < 0 {
		return
	}
	if len(acks) > 1 {
		st.pendingAcks[res] = slices.Delete(acks, i, i+1)
		return
	}
	st.popAcks(res)
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
	keys := make([]ResourceID, 0, len(pending))
	for res := range pending {
		keys = append(keys, res)
	}
	slices.Sort(keys)
	for _, res := range keys {
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
