package cluster

import (
	"context"
	"fmt"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
	"ccpfs/internal/wire"
)

// This file is the cluster's partition control plane (DESIGN.md §12):
// the kill-one failover entry point and the online slot-migration
// orchestrator (freeze at the source → lease transfer → install at the
// destination), plus the remote routing hooks the servers' extent-cache
// cleanup daemons use once lock mastership and data placement diverge.

// lockMasterFor resolves the index of the server currently mastering a
// stripe's slot; ok is false when the slot is unowned (or its recorded
// holder is out of range).
func (c *Cluster) lockMasterFor(stripe uint64) (int, bool) {
	if c.Coord == nil {
		return 0, false
	}
	owner := c.Coord.Snapshot().OwnerOf(stripe)
	if owner < 0 || int(owner) >= len(c.Servers) {
		return 0, false
	}
	return int(owner), true
}

// remoteMinSN answers a storing server's min-SN query at the stripe's
// current lock master. In-process call: the cluster stands in for the
// server-to-server RPC the paper's deployment would use.
func (c *Cluster) remoteMinSN(stripe uint64, rng extent.Extent) (extent.SN, bool) {
	idx, ok := c.lockMasterFor(stripe)
	if !ok {
		return 0, false
	}
	return c.Servers[idx].DLM.MinSN(dlm.ResourceID(stripe), rng)
}

// remoteForceSync runs a storing server's forced sync at the stripe's
// current lock master, through the master's own probe.
func (c *Cluster) remoteForceSync(stripe uint64) {
	if idx, ok := c.lockMasterFor(stripe); ok {
		c.Servers[idx].SyncStripe(stripe)
	}
}

// KillServer abruptly stops server i — the kill-one-of-N failover
// scenario. The dead server stops renewing its slot leases; once they
// lapse, a surviving server's lease daemon claims the slots, bumps the
// epoch, and rebuilds their lock tables from slot-filtered client
// replay. The server stays in Servers (indices are partition-map
// identities) but serves nothing. Idempotent.
func (c *Cluster) KillServer(i int) {
	if c.admin != nil {
		c.admin[i].Close()
	}
	c.Servers[i].Close()
}

// MigrateSlot moves one hash slot's mastership between two live
// servers while the cluster serves traffic: freeze-and-export at the
// source (new requests refused with ErrNotOwner from here on), lease
// transfer at the coordinator (epoch bump), install at the destination
// (exact sequencer and granted-lock transfer, so SNs issued by the new
// master continue the old master's sequence). Clients retry redirected
// RPCs transparently; no operation fails.
//
// A freeze that succeeds but whose transfer or install fails leaves
// the slot mastered by nobody — the failover path (lease expiry +
// takeover replay) then recovers it, so the error is returned rather
// than rolled back.
func (c *Cluster) MigrateSlot(ctx context.Context, slot partition.Slot, from, to int) error {
	if c.Coord == nil {
		return fmt.Errorf("cluster: not partitioned")
	}
	if from < 0 || from >= len(c.Servers) || to < 0 || to >= len(c.Servers) || from == to {
		return fmt.Errorf("cluster: migrate slot %d: bad servers %d -> %d", slot, from, to)
	}
	var st wire.SlotState
	if err := c.admin[from].Call(ctx, wire.MSlotFreeze, &wire.SlotFreezeRequest{Slot: uint32(slot)}, &st); err != nil {
		return fmt.Errorf("cluster: freeze slot %d at server %d: %w", slot, from, err)
	}
	epoch, _, err := c.Coord.Transfer(slot, int32(from), int32(to))
	if err != nil {
		return fmt.Errorf("cluster: transfer slot %d: %w", slot, err)
	}
	if err := c.admin[to].Call(ctx, wire.MSlotInstall, &wire.SlotInstall{Epoch: epoch, State: st}, nil); err != nil {
		return fmt.Errorf("cluster: install slot %d at server %d: %w", slot, to, err)
	}
	return nil
}
