package client

import (
	"context"
	"errors"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/partition"
	"ccpfs/internal/rpc"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// This file implements the client side of the partitioned lock space
// (DESIGN.md §12): an RCU-cached partition map routing each resource's
// lock traffic to the slot's current master, refreshed when a server
// answers ErrNotOwner (mastership moved) or a connection dies (master
// crashed). Lock RPCs are retried transparently at the new master, so
// migration and failover cost clients latency, never failures.

// refreshCollapse bounds how often the map is actually re-fetched: a
// burst of redirected RPCs (every lock in a migrated slot) collapses
// into one refresh instead of a per-RPC stampede.
const refreshCollapse = 2 * time.Millisecond

// refreshCallTimeout bounds one map-fetch RPC so a dead server's
// endpoint cannot stall the refresh loop past the other servers.
const refreshCallTimeout = 500 * time.Millisecond

// partitionMap returns the cached map, or nil before the first refresh.
func (c *Client) partitionMap() *partition.Map { return c.pmap.Load() }

// refreshMap re-fetches the partition map, trying every data server
// until one answers (during failover the dead master's endpoint is
// unreachable; any live server shares the coordinator's view, so the
// first success is authoritative). Concurrent callers collapse into one
// fetch. A fetched map installs only if its epoch is not older than the
// cached one.
func (c *Client) refreshMap(ctx context.Context) error {
	c.pmMu.Lock()
	defer c.pmMu.Unlock()
	if c.clk.Since(c.pmLast) < refreshCollapse {
		return nil // a concurrent caller just refreshed
	}
	var lastErr error
	for _, ep := range c.conns.Data {
		callCtx, cancel := context.WithTimeout(ctx, refreshCallTimeout)
		var rep wire.PartitionMapReply
		err := ep.Call(callCtx, wire.MPartitionMap, &wire.Ack{}, &rep)
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		if len(rep.Owners) != partition.NumSlots {
			lastErr = wire.Errorf(wire.CodeInvalid, "client: partition map with %d owners", len(rep.Owners))
			continue
		}
		m := &partition.Map{Epoch: rep.Epoch}
		copy(m.Owner[:], rep.Owners)
		if cur := c.pmap.Load(); cur == nil || m.Epoch >= cur.Epoch {
			c.pmap.Store(m)
		}
		c.pmLast = c.clk.Now()
		c.Stats.MapRefreshes.Inc()
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("client: no data servers to fetch partition map from")
	}
	return lastErr
}

// masterFor resolves a resource's current master endpoint from the
// cached map. A missing map or unowned slot reports ErrNotOwner, which
// the retry loop turns into a refresh.
func (c *Client) masterFor(rid uint64) (*rpc.Endpoint, error) {
	m := c.pmap.Load()
	if m == nil {
		return nil, wire.ErrNotOwner
	}
	owner := m.OwnerOf(rid)
	if owner < 0 || int(owner) >= len(c.conns.Data) {
		return nil, wire.ErrNotOwner
	}
	return c.conns.Data[owner], nil
}

// retryableRedirect reports whether err means "wrong or dead master":
// the server refused mastership (stale map) or the connection died
// (crashed master — its slots will reappear under a successor). Nothing
// else retries here; in particular a draining server's refusals must
// surface, or the client's own shutdown would livelock against it.
func retryableRedirect(err error) bool {
	return wire.CodeOf(err) == wire.CodeNotOwner || errors.Is(err, transport.ErrClosed)
}

// withMaster runs fn against the resource's master, refreshing the map
// and retrying (with backoff, ctx-bounded) on redirects. This is the
// client half of the paper's transparent remastering: lock users above
// never observe the topology change.
func (c *Client) withMaster(ctx context.Context, rid uint64, fn func(ep *rpc.Endpoint) error) error {
	backoff := time.Millisecond
	for {
		ep, err := c.masterFor(rid)
		if err == nil {
			err = fn(ep)
		}
		if err == nil || !retryableRedirect(err) {
			return err
		}
		c.Stats.LockRetries.Inc()
		if rerr := c.refreshMap(ctx); rerr != nil && ctx.Err() != nil {
			return err
		}
		if !c.clk.SleepCtx(ctx, backoff) {
			return err
		}
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

// partConn adapts the partition-routed RPC path to dlm.ServerConn. One
// instance serves all resources: the endpoint is resolved per call from
// the current map, so a lock acquired at one master releases at its
// successor after a migration.
type partConn struct{ c *Client }

// Lock implements dlm.ServerConn.
func (p partConn) Lock(ctx context.Context, req dlm.Request) (dlm.Grant, error) {
	var g dlm.Grant
	err := p.c.withMaster(ctx, uint64(req.Resource), func(ep *rpc.Endpoint) error {
		var e error
		g, e = rpcConn{ep: ep}.Lock(ctx, req)
		return e
	})
	return g, err
}

// Release implements dlm.ServerConn.
func (p partConn) Release(ctx context.Context, res dlm.ResourceID, id dlm.LockID) error {
	return p.c.withMaster(ctx, uint64(res), func(ep *rpc.Endpoint) error {
		return rpcConn{ep: ep}.Release(ctx, res, id)
	})
}

// Downgrade implements dlm.ServerConn.
func (p partConn) Downgrade(ctx context.Context, res dlm.ResourceID, id dlm.LockID, m dlm.Mode) error {
	return p.c.withMaster(ctx, uint64(res), func(ep *rpc.Endpoint) error {
		return rpcConn{ep: ep}.Downgrade(ctx, res, id, m)
	})
}

// HandoffAck implements dlm.HandoffAcker against the slot's current
// master, so a delegation confirmed after a migration still lands at
// the server that now carries the delegated lock.
func (p partConn) HandoffAck(ctx context.Context, res dlm.ResourceID, ids []dlm.LockID) error {
	return p.c.withMaster(ctx, uint64(res), func(ep *rpc.Endpoint) error {
		return rpcConn{ep: ep}.HandoffAck(ctx, res, ids)
	})
}
