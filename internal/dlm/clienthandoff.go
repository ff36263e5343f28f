package dlm

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// Client side of the handoff fast path (DESIGN.md §13). The holder of
// a stamped revocation transfers the lock to the next owner over the
// PeerSender; the recipient blocks its delegated acquire on the
// transfer's arrival (OnHandoff) and confirms the delegation back to
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
	iv := c.policy.HandoffReclaimInterval
	if iv <= 0 {
		iv = DefaultHandoffTimeout
	}
	return iv / 4
}

// PeerSender is the client-to-client transport for handoff transfers.
// SendHandoff delivers "lock id on res is now yours" to the peer and
// returns once the peer accepted it; an error makes the holder fall
// back to releasing through the server. acks piggybacks delegation
// confirmations for the receiver to forward to the server on its next
// lock request, and bcast, when non-nil, turns the transfer into a
// broadcast: the receiver owns the lead lease and propagates the rest
// of the cohort (DESIGN.md §14). Both are nil for plain transfers.
type PeerSender interface {
	SendHandoff(ctx context.Context, peer ClientID, res ResourceID, id LockID, acks []LockID, bcast *BroadcastStamp) error
}

// PeerSenderFunc adapts a function to PeerSender.
type PeerSenderFunc func(ctx context.Context, peer ClientID, res ResourceID, id LockID, acks []LockID, bcast *BroadcastStamp) error

// SendHandoff implements PeerSender.
func (f PeerSenderFunc) SendHandoff(ctx context.Context, peer ClientID, res ResourceID, id LockID, acks []LockID, bcast *BroadcastStamp) error {
	return f(ctx, peer, res, id, acks, bcast)
}

// LeaseSender is the optional PeerSender extension the propagation
// tree requires: SendLease ships a cohort subtree to the peer owning
// its first lease. Without it, only the lead receives its lease
// peer-to-peer and the server's reclaimer resolves the rest.
type LeaseSender interface {
	SendLease(ctx context.Context, peer ClientID, res ResourceID, grant *BroadcastStamp) error
}

// HandoffAcker is the optional ServerConn extension for standalone
// delegation acks. Connections that do not implement it leave acks
// queued for piggybacking on the next lock request.
type HandoffAcker interface {
	HandoffAck(ctx context.Context, res ResourceID, id LockID) error
}

// HandoffAckBatcher is the further extension that confirms several
// delegations of one resource in a single RPC — the flush path prefers
// it when more than one ack is queued (a propagation-tree cohort
// confirms this way when no lock request drains the acks first).
type HandoffAckBatcher interface {
	HandoffAckBatch(ctx context.Context, res ResourceID, ids []LockID) error
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

// transferWaiter parks a delegated acquire until enough transfer
// parts arrive: one for a plain handoff, one per cohort member for a
// gather. A server-sent activation (final) completes the wait
// outright — the server already resolved whatever parts were missing.
//
// Records are recycled (transferWaiters): ch is a one-slot channel that
// the one completer — whoever deletes the record from pendingHandoffs
// under the shard lock — sends on once, and waitTransfer puts the record
// back after it has received that send, or after deleting the record
// itself, when no completer ever will. The completer loads ch before
// sending and does not touch the record after.
type transferWaiter struct {
	need int
	ch   chan struct{}
	// The delegated grant being waited on, retained so Export can
	// report the promised lock during crash takeover: the waiter has no
	// Handle yet, and without the record the successor master would
	// never learn the lock exists.
	mode Mode
	rng  extent.Extent
	sn   extent.SN
}

// finalParts marks a server-sent activation in the arrival count: it
// satisfies any part requirement.
const finalParts = int(1) << 30

// OnHandoff records the arrival of a transferred lock — from the
// previous holder over the peer transport, or as a server-sent
// activation after a fallback release or reclaim. Duplicates (the two
// paths racing) are idempotent: a transfer for a lock already
// installed or already gone is dropped.
func (c *LockClient) OnHandoff(res ResourceID, id LockID) {
	c.OnHandoffMsg(res, id, true, nil, nil)
}

// OnHandoffMsg is the full-form transfer arrival: final marks a
// server-sent activation (completes a multi-part gather outright,
// where a peer part counts once); acks carries delegation
// confirmations a transferring reader piggybacked for this client to
// forward to the server; bcast, when non-nil, makes this a broadcast
// transfer — the lead lease plus the cohort to propagate.
func (c *LockClient) OnHandoffMsg(res ResourceID, id LockID, final bool, acks []LockID, bcast *BroadcastStamp) {
	if len(acks) > 0 {
		c.requeueAcks(res, acks)
	}
	if bcast != nil && c.policy.ReaderFanout {
		c.receiveCohort(res, bcast)
		return
	}
	k := lockKey{res, id}
	sh := c.shard(res)
	sh.mu.Lock()
	if tw, ok := sh.pendingHandoffs[k]; ok {
		if final {
			tw.need = 0
		} else {
			tw.need--
		}
		if tw.need <= 0 {
			delete(sh.pendingHandoffs, k)
			tw.complete(c.clk)
		}
	} else if !sh.tombstones[k] && findByID(sh.cached[res], id) == nil {
		if final {
			put(&sh.arrivedHandoffs, k, finalParts)
		} else {
			put(&sh.arrivedHandoffs, k, sh.arrivedHandoffs[k]+1)
		}
	}
	sh.mu.Unlock()
}

// waitTransfer blocks a delegated acquire until its lock's transfer
// arrives — all parts of it, for a gather. Parts may already have
// landed (they raced ahead of the grant reply); otherwise park on a
// channel OnHandoffMsg signals once the count is met. cached reports
// that a broadcast lease install raced ahead of the grant reply and
// the lock is already in the cache — the caller must adopt that
// handle instead of building its own.
func (c *LockClient) waitTransfer(ctx context.Context, res ResourceID, g Grant) (cached bool, err error) {
	parts := g.GatherParts
	if parts < 1 {
		parts = 1
	}
	k := lockKey{res, g.LockID}
	sh := c.shard(res)
	sh.mu.Lock()
	if findByID(sh.cached[res], g.LockID) != nil {
		sh.mu.Unlock()
		return true, nil
	}
	got := sh.arrivedHandoffs[k]
	delete(sh.arrivedHandoffs, k)
	if got >= parts {
		sh.mu.Unlock()
		return false, nil
	}
	tw := transferWaiters.Get().(*transferWaiter)
	tw.need, tw.mode, tw.rng, tw.sn = parts-got, g.Mode, g.Range, g.SN
	put(&sh.pendingHandoffs, k, tw)
	sh.mu.Unlock()

	if c.waitTransferCh(ctx, tw) {
		tw.recycle()
		return false, nil
	}
	sh.mu.Lock()
	if _, ok := sh.pendingHandoffs[k]; ok {
		delete(sh.pendingHandoffs, k)
		sh.mu.Unlock()
		tw.recycle()
		if err := ctx.Err(); err != nil {
			return false, wire.FromContext(err)
		}
		return false, wire.ErrShuttingDown
	}
	sh.mu.Unlock()
	// The transfer raced the abort and won (its completer sent under
	// the shard lock); take the send and use the lock.
	<-tw.ch
	tw.recycle()
	return false, nil
}

// transferWaiters recycles transferWaiter records; see transferWaiter.
var transferWaiters = sync.Pool{New: func() any { return &transferWaiter{ch: make(chan struct{}, 1)} }}

// complete ends tw's wait. The caller has just deleted tw from
// pendingHandoffs under the shard lock, which makes it the one completer.
// tw may be recycled once the send lands; sim.Send wakes its own copy of
// the channel.
func (tw *transferWaiter) complete(clk sim.Clock) { sim.Send(clk, tw.ch, struct{}{}) }

// recycle clears tw, keeping its (empty) channel, and pools it.
func (tw *transferWaiter) recycle() {
	*tw = transferWaiter{ch: tw.ch}
	transferWaiters.Put(tw)
}

// waitTransferCh waits to receive the transfer's completion on tw.ch,
// reporting whether the transfer completed (false means ctx or the
// client's lifecycle fired first).
func (c *LockClient) waitTransferCh(ctx context.Context, tw *transferWaiter) bool {
	_, _, err := sim.Recv(ctx, c.clk, tw.ch, c.baseCtx.Done(), time.Time{})
	return err == nil
}

// queueAck queues the confirmation of a delegation that just installed
// for the server mastering res. Nobody waiting, it takes the lazy path:
// the next lock request drains it, or the shard's flush timer does. If
// the server already solicited it — a waiter is blocked on this very
// ack — it leaves now, with whatever else is queued for res.
func (c *LockClient) queueAck(res ResourceID, id LockID) {
	k := lockKey{res, id}
	sh := c.shard(res)
	sh.mu.Lock()
	put(&sh.pendingAcks, res, append(sh.pendingAcks[res], id))
	if sh.solicited[k] {
		delete(sh.solicited, k)
		ids := sh.popAcks(res)
		sh.mu.Unlock()
		c.sendSolicited(res, ids)
		return
	}
	if sh.ackTimer == nil {
		sh.ackTimer = c.clk.AfterFunc(c.ackFlushDelay(), func() { c.flushShardAcks(sh) })
	}
	sh.mu.Unlock()
}

// popAcks pops the queued acks for res. When that drains the shard, the
// flush timer is disarmed: leaving it running would fire it mid-way
// into the next batch's window and flush acks standalone that the next
// request or transfer was about to carry for free. Caller holds sh.mu.
func (sh *clientShard) popAcks(res ResourceID) []LockID {
	acks := sh.pendingAcks[res]
	if len(acks) > 0 {
		delete(sh.pendingAcks, res)
	}
	if len(sh.pendingAcks) == 0 && sh.ackTimer != nil {
		sh.ackTimer.Stop()
		sh.ackTimer = nil
	}
	return acks
}

// takeAcks pops the queued acks for res, to piggyback on a lock request
// or a peer transfer. The caller must re-queue them if that fails.
func (c *LockClient) takeAcks(res ResourceID) []LockID {
	sh := c.shard(res)
	sh.mu.Lock()
	acks := sh.popAcks(res)
	sh.mu.Unlock()
	return acks
}

// requeueAcks returns acks taken by a lock request that failed, or
// whose connection cannot send them standalone; they wait for the next
// lock request (no timer re-arm — a connection without a HandoffAck
// path would otherwise spin the timer forever). Duplicate delivery is
// harmless: the server ignores acks for already-confirmed delegations.
func (c *LockClient) requeueAcks(res ResourceID, acks []LockID) {
	if len(acks) == 0 {
		return
	}
	sh := c.shard(res)
	sh.mu.Lock()
	put(&sh.pendingAcks, res, append(sh.pendingAcks[res], acks...))
	sh.mu.Unlock()
}

// OnAckSolicit handles the server's request to confirm delegated lock
// id now: a waiter there is blocked on nothing but this ack. If the
// transfer has installed, the ack leaves at once — out of the lazy
// queue with the rest of res's acks, or afresh when it already left the
// queue (sent, or forwarded to a gathering writer that has not passed
// it on; duplicate acks are idempotent server-side). If the transfer is
// still on its way, the lock is marked and queueAck sends the ack the
// moment it installs. A lock already gone from this client is ignored.
func (c *LockClient) OnAckSolicit(res ResourceID, id LockID) {
	k := lockKey{res, id}
	sh := c.shard(res)
	sh.mu.Lock()
	var ids []LockID
	switch {
	case slices.Contains(sh.pendingAcks[res], id):
		ids = sh.popAcks(res)
	case findByID(sh.cached[res], id) != nil:
		ids = []LockID{id}
	case !sh.tombstones[k]:
		put(&sh.solicited, k, true)
	}
	sh.mu.Unlock()
	c.sendSolicited(res, ids)
}

// sendSolicited answers a solicitation off the caller's goroutine: the
// callers are an RPC handler and an acquire about to use its lock, and
// neither should sit out the ack's round trip.
func (c *LockClient) sendSolicited(res ResourceID, ids []LockID) {
	if len(ids) == 0 {
		return
	}
	c.Stats.SolicitedAcks.Add(1)
	c.clk.Go(func() { c.sendAcks(c.baseCtx, map[ResourceID][]LockID{res: ids}) })
}

// sendAcks sends the given acks standalone, one batch RPC per resource
// where the connection can batch, in ascending resource order: each
// send is an RPC whose timing deterministic virtual runs must not let
// depend on map iteration order. Acks whose connection has no
// HandoffAck path are re-queued for the next lock request; the server's
// reclaim timer covers the pathological case where none ever comes.
func (c *LockClient) sendAcks(ctx context.Context, pending map[ResourceID][]LockID) {
	keys := make([]ResourceID, 0, len(pending))
	for res := range pending {
		keys = append(keys, res)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, res := range keys {
		ids := pending[res]
		conn := c.router(res)
		if hb, ok := conn.(HandoffAckBatcher); ok && len(ids) > 1 {
			hb.HandoffAckBatch(ctx, res, ids)
			continue
		}
		ha, ok := conn.(HandoffAcker)
		if !ok {
			c.requeueAcks(res, ids)
			continue
		}
		for _, id := range ids {
			ha.HandoffAck(ctx, res, id)
		}
	}
}

// drainShardAcks empties the shard's lazy queue and disarms its timer,
// returning what was queued.
func (sh *clientShard) drainShardAcks() map[ResourceID][]LockID {
	sh.mu.Lock()
	pending := sh.pendingAcks
	sh.pendingAcks = nil
	if sh.ackTimer != nil {
		sh.ackTimer.Stop()
		sh.ackTimer = nil
	}
	sh.mu.Unlock()
	return pending
}

// flushShardAcks is the lazy path's timer: every ack still queued in
// the shard goes out standalone.
func (c *LockClient) flushShardAcks(sh *clientShard) {
	c.sendAcks(c.baseCtx, sh.drainShardAcks())
}

// FlushHandoffAcks synchronously drains every queued delegation ack —
// the shutdown barrier runs it so the server confirms outstanding
// delegations before the client goes quiet.
func (c *LockClient) FlushHandoffAcks(ctx context.Context) {
	for _, sh := range c.liveShards() {
		c.sendAcks(ctx, sh.drainShardAcks())
	}
}
