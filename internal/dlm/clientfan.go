package dlm

import (
	"context"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
)

// Client side of the read-lease propagation tree (DESIGN.md §14). A
// gather writer's handback transfer hands the receiving client the lead
// lease of a cohort plus the ordered remainder; the lead installs its own lease,
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
	end := c.clk.Now().Add(c.policy.ReclaimInterval())
	for {
		var fx clientEffects
		c.do(res, &clientEvent{kind: cevStand, need: need, rng: rng}, &fx)
		if fx.ch == nil {
			return fx.h // the lease landed, or the resource is not standing
		}
		_, _, err := sim.Recv(ctx, c.clk, fx.ch, c.baseCtx.Done(), end)
		if err == sim.ErrDeadline {
			// The lease never came (propagation lost, writer died).
			// Stop standing and fall back to the server.
			c.run(res, clientEvent{kind: cevStandExpired})
			return nil
		}
		if err != nil || ctx.Err() != nil || c.baseCtx.Err() != nil {
			return nil
		}
	}
}

// receiveCohort handles an arriving cohort slice — from a gather
// writer's handback transfer (lead) or a peer's propagation: install
// the first lease as our own, then ship the remainder down the tree, in
// at most the stamp's fan-out subtrees.
func (c *LockClient) receiveCohort(res ResourceID, g *Stamp) {
	c.run(res, clientEvent{kind: cevLease, id: g.Leases[0].LockID, stamp: g})
	rest, box := g.Leases[1:], c.peer.Load()
	if len(rest) == 0 || box == nil {
		// Without a propagation path the server's reclaimer resolves
		// the remaining leases after the reclaim interval.
		return
	}
	for _, chunk := range splitLeases(rest, g.Fanout) {
		sub := &Stamp{Mode: g.Mode, Range: g.Range, Fanout: g.Fanout, Leases: chunk}
		owner := chunk[0].Owner
		c.clk.Go(func() {
			if err := box.s.SendTransfer(c.baseCtx, owner, res, Transfer{Cohort: sub}); err == nil {
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
	k := min(fanout, len(rest))
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
