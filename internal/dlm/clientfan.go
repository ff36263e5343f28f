package dlm

import (
	"context"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
)

// Client side of the read-lease propagation tree (DESIGN.md §14). A
// broadcast transfer hands the receiving client the lead lease of a
// cohort plus the ordered remainder; the lead installs its own lease,
// splits the rest into at most Fanout contiguous subtrees, and ships
// each to the peer owning its first lease, which recurses. Leases for
// resources in a fan rotation arrive this way round after round, so
// shared-mode acquires park briefly on the arrival instead of paying a
// server round trip; a reclaim-interval timeout falls back to the
// server, which self-heals any lease lost in flight.

// waitStanding parks a shared-mode acquire on a fan-rotation resource
// until a covering lease lands (claimed via the cached-hit path), the
// reclaim interval expires, or ctx fires. Returns nil when the caller
// should proceed to the server.
func (c *LockClient) waitStanding(ctx context.Context, res ResourceID, need Mode, rng extent.Extent) *Handle {
	sh := c.shard(res)
	timeout := DefaultHandoffTimeout
	if c.policy.HandoffReclaimInterval > 0 {
		timeout = c.policy.HandoffReclaimInterval
	}
	end := c.clk.Now().Add(timeout)
	for {
		sh.mu.Lock()
		if !sh.fanStanding[res] {
			sh.mu.Unlock()
			return nil
		}
		// The lease may have landed between the caller's cache miss and
		// here; re-probe under the registration lock so a wake cannot
		// slip between the miss and the park.
		if h := c.hitLocked(sh, res, need, rng); h != nil {
			sh.mu.Unlock()
			return h
		}
		ch := make(chan struct{})
		put(&sh.fanWaiters, res, append(sh.fanWaiters[res], ch))
		sh.mu.Unlock()

		_, _, err := sim.Recv(ctx, c.clk, ch, c.baseCtx.Done(), end)
		if err == sim.ErrDeadline {
			// The lease never came (propagation lost, writer died).
			// Stop standing and fall back to the server.
			sh.mu.Lock()
			delete(sh.fanStanding, res)
			sh.mu.Unlock()
			return nil
		}
		if err != nil || ctx.Err() != nil || c.baseCtx.Err() != nil {
			return nil
		}
	}
}

// wakeStanding releases every acquire parked on res. Caller holds
// sh.mu; woken waiters re-probe the cache and re-park on a miss.
func (sh *clientShard) wakeStanding(res ResourceID, clk sim.Clock) {
	ws := sh.fanWaiters[res]
	if len(ws) == 0 {
		return
	}
	for _, ch := range ws {
		sim.Close(clk, ch)
	}
	delete(sh.fanWaiters, res)
}

// OnLeasePropagate receives a propagation-tree subtree: the first
// lease is this client's own, the rest is forwarded onward. Duplicate
// deliveries are idempotent.
func (c *LockClient) OnLeasePropagate(res ResourceID, grant *BroadcastStamp) {
	if !c.policy.ReaderFanout {
		return
	}
	c.receiveCohort(res, grant)
}

// receiveCohort handles an arriving cohort slice — from the displaced
// holder's broadcast transfer (lead) or a peer's propagation: install
// the first lease as our own, then ship the remainder down the tree.
func (c *LockClient) receiveCohort(res ResourceID, g *BroadcastStamp) {
	if len(g.Leases) == 0 {
		return
	}
	c.installLease(res, g, g.Leases[0])
	rest := g.Leases[1:]
	if len(rest) == 0 {
		return
	}
	var ls LeaseSender
	if box := c.peer.Load(); box != nil {
		ls, _ = box.s.(LeaseSender)
	}
	if ls == nil {
		// No propagation path: the server's reclaimer resolves the
		// remaining leases after the reclaim interval.
		return
	}
	fanout := g.Fanout
	if fanout < 1 {
		fanout = c.policy.FanoutWidth()
	}
	for _, chunk := range splitLeases(rest, fanout) {
		sub := &BroadcastStamp{Mode: g.Mode, Range: g.Range, Fanout: g.Fanout, Leases: chunk}
		owner := chunk[0].Owner
		c.clk.Go(func() {
			if err := ls.SendLease(c.baseCtx, owner, res, sub); err == nil {
				c.Stats.LeasesSent.Add(1)
			}
			// On error the subtree's leases stay delegated server-side
			// and the reclaimer resolves them; nothing to do here.
		})
	}
}

// splitLeases partitions rest into at most fanout contiguous,
// near-equal chunks — the subtrees of one propagation-tree node.
func splitLeases(rest []Lease, fanout int) [][]Lease {
	if fanout < 1 {
		fanout = 1
	}
	k := fanout
	if k > len(rest) {
		k = len(rest)
	}
	chunks := make([][]Lease, 0, k)
	base, extra := len(rest)/k, len(rest)%k
	i := 0
	for j := 0; j < k; j++ {
		sz := base
		if j < extra {
			sz++
		}
		chunks = append(chunks, rest[i:i+sz])
		i += sz
	}
	return chunks
}

// installLease installs an unsolicited read lease delivered by a
// broadcast or propagation. If a delegated acquire is parked on the
// lease (round-one formation), completing its wait is the install; a
// lease already installed or tombstoned is a duplicate and dropped.
// Otherwise a zero-hold GRANTED handle enters the cache, honouring any
// revocation that raced ahead (the lease is then born CANCELING and
// cancels immediately — its transfer obligation, if stamped, still
// runs). Parked fan waiters are woken either way.
func (c *LockClient) installLease(res ResourceID, g *BroadcastStamp, mine Lease) {
	k := lockKey{res, mine.LockID}
	sh := c.shard(res)
	sh.mu.Lock()
	if tw, ok := sh.pendingHandoffs[k]; ok {
		delete(sh.pendingHandoffs, k)
		tw.complete(c.clk)
		sh.mu.Unlock()
		return
	}
	if sh.tombstones[k] || findByID(sh.cached[res], mine.LockID) != nil {
		sh.mu.Unlock()
		return
	}
	delete(sh.arrivedHandoffs, k)
	h := &Handle{
		c:        c,
		res:      res,
		id:       mine.LockID,
		sn:       mine.SN,
		rng:      g.Range,
		released: make(chan struct{}),
	}
	st := Granted
	if stamp, ok := sh.pendingRevokes[k]; ok {
		delete(sh.pendingRevokes, k)
		if stamp != nil {
			h.stamp.Store(stamp)
		}
		st = Canceling
	}
	w := hotWord(0, st, g.Mode, false)
	spawnCancel := st == Canceling
	if spawnCancel {
		w |= hotCanceling
	}
	h.hot.Store(w)
	put(&sh.cached, res, append(sh.cached[res], h))
	sh.wakeStanding(res, c.clk)
	sh.mu.Unlock()

	c.Stats.HandoffsRecv.Add(1)
	c.Stats.LeasesRecv.Add(1)
	c.queueAck(res, mine.LockID)
	if spawnCancel {
		c.clk.Go(func() { c.cancel(h) })
	}
}
