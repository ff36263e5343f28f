// Package cluster assembles an in-process ccPFS deployment — N data
// servers (one hosting the namespace) and any number of clients — wired
// through the simulated memnet fabric. It is the reproduction's stand-in
// for the paper's 96-node testbed: every node is a real server or client
// running the full RPC/lock/data paths; only the wires and devices are
// simulated.
package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/dataserver"
	"ccpfs/internal/dlm"
	"ccpfs/internal/meta"
	"ccpfs/internal/obs"
	"ccpfs/internal/pagecache"
	"ccpfs/internal/partition"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport/memnet"
)

// Options configure a cluster.
type Options struct {
	// Servers is the number of data servers (1 when 0).
	Servers int
	// Policy selects the DLM every node runs.
	Policy dlm.Policy
	// Hardware models the fabric and devices (sim.Fast() when zero).
	Hardware sim.Hardware
	// PageCache configures each client's cache.
	PageCache pagecache.Config
	// FlushInterval enables each client's voluntary flush daemon.
	FlushInterval time.Duration
	// ExtCacheThreshold overrides the servers' extent cache budget.
	ExtCacheThreshold int
	// ExtentLog enables the servers' extent logs.
	ExtentLog bool
	// CleanupInterval enables the servers' extent cache cleanup daemon.
	CleanupInterval time.Duration
	// Handoff enables the client-to-client lock handoff fast path
	// (DESIGN.md §13) on every server and wires a peer listener and
	// dialer into every client.
	Handoff bool
	// ReaderFanout enables the batched shared-mode fan-out path
	// (DESIGN.md §14): broadcast delegations toward reader cohorts and
	// peer-to-peer read-lease propagation trees. It implies Handoff's
	// peer transport.
	ReaderFanout bool
	// Partition enables N-way lock-space partitioning (DESIGN.md §12):
	// each server masters a lease-held share of the hash slots, clients
	// route by the partition map, and surviving servers take over the
	// slots of a dead peer.
	Partition bool
	// LeaseTTL is the slot lease duration (DefaultLeaseTTL when 0).
	LeaseTTL time.Duration
}

// DefaultLeaseTTL is the default slot lease duration: long enough that
// renewal (every TTL/3) is cheap, short enough that failover tests
// complete quickly.
const DefaultLeaseTTL = time.Second

// Cluster is a running in-process deployment.
type Cluster struct {
	opts    Options
	net     *memnet.Network
	Meta    *meta.Service
	Servers []*dataserver.Server

	// Coord arbitrates slot leases when the lock space is partitioned
	// (nil otherwise); admin holds one RPC endpoint per server for the
	// migration orchestrator (freeze/install round trips).
	Coord *partition.Coordinator
	admin []*rpc.Endpoint

	nextClient atomic.Uint32
}

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Servers <= 0 {
		opts.Servers = 1
	}
	if opts.Handoff {
		opts.Policy.Handoff = true
	}
	if opts.ReaderFanout {
		opts.Policy.ReaderFanout = true
	}
	c := &Cluster{
		opts: opts,
		net:  memnet.New(opts.Hardware),
		Meta: meta.NewService(),
	}
	if opts.Partition {
		ttl := opts.LeaseTTL
		if ttl == 0 {
			ttl = DefaultLeaseTTL
		}
		c.Coord = partition.NewCoordinator(ttl)
		c.Coord.SetClock(opts.Hardware.Clock.Now)
	}
	slots := partition.Uniform(opts.Servers)
	for i := 0; i < opts.Servers; i++ {
		cfg := dataserver.Config{
			Name:              fmt.Sprintf("server-%d", i),
			Policy:            opts.Policy,
			Hardware:          opts.Hardware,
			ExtCacheThreshold: opts.ExtCacheThreshold,
			ExtentLog:         opts.ExtentLog,
			CleanupInterval:   opts.CleanupInterval,
		}
		if i == 0 {
			cfg.Meta = c.Meta
		}
		if opts.Partition {
			cfg.Partition = &dataserver.PartitionConfig{
				Coordinator:     c.Coord,
				Index:           int32(i),
				Slots:           slots[i],
				Takeover:        true,
				RemoteMinSN:     c.remoteMinSN,
				RemoteForceSync: c.remoteForceSync,
			}
		}
		srv := dataserver.New(cfg)
		l, err := c.net.Listen(cfg.Name)
		if err != nil {
			return nil, err
		}
		srv.Serve(l)
		c.Servers = append(c.Servers, srv)
	}
	if opts.Partition {
		// One admin connection per server carries the migration
		// orchestrator's freeze/install RPCs (no Hello: admin endpoints
		// must not appear in the servers' client tables, or takeover
		// replay would gather from them).
		for i := range c.Servers {
			conn, err := c.net.Dial(fmt.Sprintf("server-%d", i))
			if err != nil {
				return nil, err
			}
			ep := rpc.NewEndpoint(conn, rpc.Options{Clock: opts.Hardware.Clock})
			ep.Start()
			c.admin = append(c.admin, ep)
		}
	}
	return c, nil
}

// NewClient adds a client node with a cluster-unique identity.
func (c *Cluster) NewClient(name string) (*client.Client, error) {
	id := dlm.ClientID(c.nextClient.Add(1))
	conns := client.Conns{}
	for i := range c.Servers {
		conn, err := c.net.Dial(fmt.Sprintf("server-%d", i))
		if err != nil {
			return nil, err
		}
		ep := rpc.NewEndpoint(conn, rpc.Options{Clock: c.opts.Hardware.Clock})
		conns.Data = append(conns.Data, ep)
		if i == 0 {
			conns.Meta = ep
		}
		// A second connection per server for bulk transfers, so flushes
		// never delay lock round trips (the prototype's RPC/RDMA split).
		bconn, err := c.net.Dial(fmt.Sprintf("server-%d", i))
		if err != nil {
			return nil, err
		}
		conns.Bulk = append(conns.Bulk, rpc.NewEndpoint(bconn, rpc.Options{Clock: c.opts.Hardware.Clock}))
	}
	pcCfg := c.opts.PageCache
	if pcCfg.CacheBandwidth == 0 {
		pcCfg.CacheBandwidth = c.opts.Hardware.CacheBandwidth
	}
	cl, err := client.New(context.Background(), client.Config{
		Name:          name,
		ID:            id,
		Policy:        c.opts.Policy,
		PageCache:     pcCfg,
		FlushInterval: c.opts.FlushInterval,
		Clock:         c.opts.Hardware.Clock,
	}, conns)
	if err != nil || !(c.opts.Handoff || c.opts.ReaderFanout) {
		return cl, err
	}
	// The handoff fast path needs a client-to-client wire: each client
	// listens at peer-<id> and dials its peers by lock client ID.
	pl, err := c.net.Listen(peerAddr(id))
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.ServePeers(pl)
	cl.SetPeerDialer(func(peer dlm.ClientID) (*rpc.Endpoint, error) {
		conn, err := c.net.Dial(peerAddr(peer))
		if err != nil {
			return nil, err
		}
		return rpc.NewEndpoint(conn, rpc.Options{Clock: c.opts.Hardware.Clock}), nil
	})
	return cl, nil
}

// peerAddr is the memnet address of a client's handoff listener.
func peerAddr(id dlm.ClientID) string { return fmt.Sprintf("peer-%d", id) }

// Clients builds n clients named with a prefix.
func (c *Cluster) Clients(n int, prefix string) ([]*client.Client, error) {
	out := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		cl, err := c.NewClient(fmt.Sprintf("%s-%d", prefix, i))
		if err != nil {
			for _, done := range out {
				done.Close()
			}
			return nil, err
		}
		out = append(out, cl)
	}
	return out, nil
}

// Close stops the servers immediately. Clients must be closed first by
// their owners.
func (c *Cluster) Close() {
	for _, ep := range c.admin {
		ep.Close()
	}
	for _, s := range c.Servers {
		s.Close()
	}
}

// Shutdown drains every server gracefully, bounded by ctx. Clients
// should be shut down first so their final flushes land while the
// servers still accept them.
func (c *Cluster) Shutdown(ctx context.Context) error {
	var err error
	for _, s := range c.Servers {
		if e := s.Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Clock returns the cluster's time source (the hardware clock every
// node was built on; the zero value is the wall clock).
func (c *Cluster) Clock() sim.Clock { return c.opts.Hardware.Clock }

// ServerDLMStats is one server's contribution to the cluster's DLM
// activity: its counter snapshot plus its wait-latency histograms.
type ServerDLMStats struct {
	Server int
	Counts dlm.Snapshot

	GrantWait      obs.HistSnapshot
	RevocationWait obs.HistSnapshot
	CancelWait     obs.HistSnapshot
}

// DLMAggregate is the cluster-wide DLM view: summed counters, merged
// wait histograms (bucket-wise, so cluster percentiles are exact — a
// sum of per-server p99s would be meaningless), and the per-server
// breakdown the partition experiments use to see load balance.
type DLMAggregate struct {
	Total dlm.Snapshot

	GrantWait      obs.HistSnapshot
	RevocationWait obs.HistSnapshot
	CancelWait     obs.HistSnapshot

	PerServer []ServerDLMStats
}

// DLMStatsBreakdown aggregates lock-server statistics across servers:
// scalar counters sum, wait histograms merge.
func (c *Cluster) DLMStatsBreakdown() DLMAggregate {
	var agg DLMAggregate
	for i, s := range c.Servers {
		snap := s.DLM.Stats.Snapshot()
		g, r, cw := s.DLM.Stats.WaitHists()
		agg.PerServer = append(agg.PerServer, ServerDLMStats{
			Server: i, Counts: snap,
			GrantWait: g, RevocationWait: r, CancelWait: cw,
		})
		agg.Total.Grants += snap.Grants
		agg.Total.Releases += snap.Releases
		agg.Total.Revocations += snap.Revocations
		agg.Total.RevokeBatches += snap.RevokeBatches
		agg.Total.EarlyGrants += snap.EarlyGrants
		agg.Total.EarlyRevocations += snap.EarlyRevocations
		agg.Total.Upgrades += snap.Upgrades
		agg.Total.Downgrades += snap.Downgrades
		agg.Total.LockOps += snap.LockOps
		agg.Total.Handoffs += snap.Handoffs
		agg.Total.HandoffAcks += snap.HandoffAcks
		agg.Total.HandoffReclaims += snap.HandoffReclaims
		agg.Total.AckSolicits += snap.AckSolicits
		agg.Total.FanRuns += snap.FanRuns
		agg.Total.FanGrants += snap.FanGrants
		agg.Total.Gathers += snap.Gathers
		agg.Total.LeaseGrants += snap.LeaseGrants
		agg.GrantWait.Merge(g)
		agg.RevocationWait.Merge(r)
		agg.CancelWait.Merge(cw)
	}
	agg.Total.GrantWait = time.Duration(agg.GrantWait.Sum)
	agg.Total.RevocationWait = time.Duration(agg.RevocationWait.Sum)
	agg.Total.CancelWait = time.Duration(agg.CancelWait.Sum)
	return agg
}

// DLMStats aggregates lock-server statistics across servers. The wait
// totals come from the merged histograms (see DLMStatsBreakdown).
func (c *Cluster) DLMStats() dlm.Snapshot {
	return c.DLMStatsBreakdown().Total
}

// FlushedBytes sums the flushed bytes every data server stored.
func (c *Cluster) FlushedBytes() int64 {
	var n int64
	for _, s := range c.Servers {
		n += s.FlushedBytes.Load()
	}
	return n
}

// DiscardedBytes sums stale flushed bytes dropped by extent caches.
func (c *Cluster) DiscardedBytes() int64 {
	var n int64
	for _, s := range c.Servers {
		n += s.DiscardedBytes.Load()
	}
	return n
}

// ExtCacheEntries sums extent cache entries across servers.
func (c *Cluster) ExtCacheEntries() int {
	n := 0
	for _, s := range c.Servers {
		n += s.Cache.Entries()
	}
	return n
}
