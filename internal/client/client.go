// Package client implements libccPFS, the ccPFS client library: a
// POSIX-like API (Create/Open, WriteAt, WriteMulti, ReadAt, Append,
// Truncate, Fsync) whose locking is implicit and transparent, exactly as in the
// paper's prototype. Every IO operation selects a lock mode with the
// Fig. 10 rules, acquires byte-range locks on the stripes it touches (in
// ascending stripe order for multi-stripe atomicity), writes through the
// SN-tagged page cache, and lets the lock client's cancel path flush and
// release on revocation.
package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/meta"
	"ccpfs/internal/obs"
	"ccpfs/internal/pagecache"
	"ccpfs/internal/partition"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// DefaultLockAlign is the lock range alignment (the paper's DLMs align
// lock ranges with 4 KB, which is why adjacent unaligned writes
// conflict). The datatype policy locks exact ranges instead.
const DefaultLockAlign = 4096

// maxFlushRPC bounds the payload of one flush RPC; larger flushes are
// split (the prototype similarly batches cache pages per RPC).
const maxFlushRPC = 8 << 20

// flushWindow bounds the flush RPCs in flight to one data server. The
// flush path is the conflict-resolution critical path (a conflicting
// grant waits on the previous holder's flush), so chunks are pipelined
// instead of issued one blocking RPC at a time.
const flushWindow = 4

// Config describes one ccPFS client.
type Config struct {
	// Name labels the client.
	Name string
	// ID is the cluster-assigned lock client identifier (must be unique
	// across the cluster and nonzero).
	ID dlm.ClientID
	// Policy must match the servers' DLM policy.
	Policy dlm.Policy
	// PageCache sizes the client cache.
	PageCache pagecache.Config
	// FlushInterval runs the voluntary flush daemon when > 0 (the
	// best-effort durability strategy of §IV-C1).
	FlushInterval time.Duration
	// Clock is the client's time source: the flush daemon, stats
	// timing, redirect backoff, and background goroutines run on it.
	// The zero value is the wall clock; a virtual run sets a VClock so
	// a whole simulated cluster advances one logical timeline.
	Clock sim.Clock
}

// Conns carries the client's established RPC endpoints. Meta may equal
// one of the Data endpoints (a data server hosting the namespace).
// Bulk, when set, provides dedicated per-server connections for flush
// and read traffic so bulk transfers never delay lock RPCs — mirroring
// the prototype's split between CaRT RPCs and RDMA bulk transfers. When
// nil, Data carries everything.
type Conns struct {
	Meta *rpc.Endpoint
	Data []*rpc.Endpoint
	Bulk []*rpc.Endpoint
}

// Stats aggregates client-side IO accounting.
type Stats struct {
	// LockNs is time spent acquiring locks inside IO calls.
	LockNs atomic.Int64
	// IONs is total time spent inside IO calls.
	IONs atomic.Int64
	// FlushedBytes counts bytes sent in flush RPCs.
	FlushedBytes atomic.Int64
	// ReadRPCs and WriteOps count operations.
	ReadRPCs atomic.Int64
	WriteOps atomic.Int64

	// ReadCacheHits/ReadCacheMisses count ReadAt segments served from
	// the page cache vs fetched from a data server.
	ReadCacheHits   obs.Counter
	ReadCacheMisses obs.Counter
	// FlushRPCHist observes per-chunk flush RPC round trips;
	// FlushGroupHist observes whole windowed group flushes (collect +
	// pipelined send), the flush-window latency on the cancel critical
	// path.
	FlushRPCHist   obs.Histogram
	FlushGroupHist obs.Histogram

	// LockRetries counts lock RPCs re-sent after a partition redirect
	// (stale map or dead master); MapRefreshes counts partition-map
	// fetches. Both stay zero in unpartitioned deployments.
	LockRetries  obs.Counter
	MapRefreshes obs.Counter
}

// Client is a ccPFS client node.
type Client struct {
	cfg   Config
	clk   sim.Clock
	conns Conns
	lc    *dlm.LockClient
	pc    *pagecache.Cache

	// baseCtx is the client's lifecycle: the flush daemon and the
	// context-less convenience wrappers (WriteAt, ReadAt, …) run under
	// it, so closing the client aborts their RPCs.
	baseCtx  context.Context
	cancelFn context.CancelFunc
	stopOnce sync.Once
	daemonWG *sim.Group

	// Stats aggregates client-side IO accounting.
	Stats Stats

	// obs is the client's metrics registry; rpcMetrics instruments all
	// of the client's endpoints (shared, so the numbers aggregate).
	obs        *obs.Registry
	rpcMetrics *rpc.Metrics

	// pmap is the RCU-cached partition map (nil when the servers are
	// unpartitioned: the connect-time probe only installs a map a
	// server actually served). pmMu serializes refreshes and guards
	// pmLast, the stampede-collapse timestamp.
	pmap   atomic.Pointer[partition.Map]
	pmMu   sync.Mutex
	pmLast time.Time

	// Peer transport for client-to-client lock handoff (DESIGN.md §13):
	// peerSrv accepts inbound transfers, peerEps caches one outbound
	// endpoint per peer, peerDial resolves a lock client ID to a dialed
	// endpoint (nil disables the fast path — stamped cancels then fall
	// back to releasing through the server).
	peerSrv  *rpc.Server
	peerMu   sync.Mutex
	peerEps  map[dlm.ClientID]*rpc.Endpoint
	peerDial PeerDialer

	// windows holds each data server's flush window, indexed like
	// conns.Data: a channel of flushWindow tokens, one taken per flush
	// RPC in flight there, across all of the client's flushes at once.
	// maxRPC bounds one flush RPC's payload (maxFlushRPC).
	windows []chan struct{}
	maxRPC  int64
}

// New builds a client over established connections. It registers the
// revocation handler on every data connection and sends Hello to each;
// ctx bounds those handshake round trips.
func New(ctx context.Context, cfg Config, conns Conns) (*Client, error) {
	if cfg.ID == 0 {
		return nil, errors.New("client: ID must be nonzero")
	}
	lifeCtx, cancel := context.WithCancel(context.Background())
	c := &Client{
		cfg:      cfg,
		clk:      cfg.Clock,
		conns:    conns,
		pc:       pagecache.New(cfg.PageCache),
		baseCtx:  lifeCtx,
		cancelFn: cancel,
		windows:  make([]chan struct{}, len(conns.Data)),
		maxRPC:   maxFlushRPC,
	}
	for i := range c.windows {
		c.windows[i] = newWindow(flushWindow)
	}
	c.daemonWG = sim.NewGroup(c.clk)
	c.pc.SetClock(c.clk)
	c.lc = dlm.NewLockClient(cfg.ID, cfg.Policy, c.route, dlm.FlusherFunc(c.flushForCancel))
	c.lc.SetClock(c.clk)
	c.rpcMetrics = rpc.NewMetrics()
	c.obs = obs.NewRegistry()
	c.registerObs()

	// Endpoints arrive unstarted: register the revocation handler and
	// metrics on every data connection first, then start the read
	// loops, then announce the client identity to every server.
	for i, ep := range conns.Data {
		ep.Handle(wire.MRevokeBatch, c.handleRevokeBatch)
		ep.Handle(wire.MHandoff, c.handleHandoff)
		ep.Handle(wire.MAckSolicit, c.handleAckSolicit)
		ep.Handle(wire.MReport, c.reportHandler(i))
	}
	started := make(map[*rpc.Endpoint]bool, 2*len(conns.Data)+1)
	start := func(ep *rpc.Endpoint) {
		if ep != nil && !started[ep] {
			started[ep] = true
			ep.SetMetrics(c.rpcMetrics)
			ep.Start()
		}
	}
	for _, ep := range conns.Data {
		start(ep)
	}
	for _, ep := range conns.Bulk {
		start(ep)
	}
	start(conns.Meta)
	for _, ep := range conns.Data {
		var rep wire.HelloReply
		if err := ep.Call(ctx, wire.MHello, &wire.HelloRequest{NodeName: cfg.Name, ClientID: uint32(cfg.ID)}, &rep); err != nil {
			return nil, fmt.Errorf("client: hello: %w", err)
		}
	}
	for _, ep := range conns.Bulk {
		var rep wire.HelloReply
		if err := ep.Call(ctx, wire.MHello, &wire.HelloRequest{NodeName: cfg.Name, ClientID: uint32(cfg.ID), Bulk: true}, &rep); err != nil {
			return nil, fmt.Errorf("client: bulk hello: %w", err)
		}
	}
	// Fetch the partition map so the first lock RPC routes correctly:
	// partitioned servers (cmd/ccpfs-server -lock-servers) serve one,
	// unpartitioned ones answer with an empty map, the fetch fails, and
	// routing stays placement-based.
	_ = c.refreshMap(ctx)
	if cfg.FlushInterval > 0 {
		c.daemonWG.Go(c.flushDaemon)
	}
	return c, nil
}

// registerObs wires the client's instruments into its registry: page
// cache occupancy as sampled gauges, lock-client protocol counters,
// the IO/flush instruments, and the shared endpoint metrics.
func (c *Client) registerObs() {
	r := c.obs
	r.Func("client.dirty_bytes", c.pc.DirtyBytes)
	r.Func("client.cached_bytes", c.pc.CachedBytes)
	r.Func("client.flushed_bytes", c.Stats.FlushedBytes.Load)
	r.Func("client.read_rpcs", c.Stats.ReadRPCs.Load)
	r.Func("client.write_ops", c.Stats.WriteOps.Load)
	r.RegisterCounter("client.read_cache_hits", &c.Stats.ReadCacheHits)
	r.RegisterCounter("client.read_cache_misses", &c.Stats.ReadCacheMisses)
	r.RegisterHistogram("client.flush_rpc", &c.Stats.FlushRPCHist)
	r.RegisterHistogram("client.flush_group", &c.Stats.FlushGroupHist)
	r.RegisterCounter("client.lock_retries", &c.Stats.LockRetries)
	r.RegisterCounter("client.map_refreshes", &c.Stats.MapRefreshes)
	r.Func("lockclient.cache_hits", c.lc.CacheHits)
	r.Func("lockclient.cache_misses", c.lc.Stats.CacheMisses.Load)
	r.Func("lockclient.revocations", c.lc.Stats.Revocations.Load)
	r.Func("lockclient.cancels", c.lc.Stats.Cancels.Load)
	r.Func("lockclient.solicited_acks", c.lc.Stats.SolicitedAcks.Load)
	r.RegisterCollector(c.rpcMetrics)
}

// Obs exposes the client's metrics registry.
func (c *Client) Obs() *obs.Registry { return c.obs }

// Locks exposes the lock client (stats and tests).
func (c *Client) Locks() *dlm.LockClient { return c.lc }

// PageCache exposes the page cache (stats and tests).
func (c *Client) PageCache() *pagecache.Cache { return c.pc }

// Close drains the client with no deadline: every dirty page is
// flushed, every cached lock released, then the connections close. It
// is idempotent.
func (c *Client) Close() { c.Shutdown(context.Background()) }

// Shutdown drains the client gracefully, bounded by ctx: it stops the
// flush daemon, flushes all dirty stripes (so the data is readable by
// other clients afterwards), releases every cached lock, and closes the
// connections. When ctx fires mid-drain the remaining steps are skipped
// and the connections close hard — the crash-equivalent the protocol
// already tolerates.
func (c *Client) Shutdown(ctx context.Context) error {
	var err error
	c.stopOnce.Do(func() {
		// Stop the daemon first so it cannot race the final flush.
		c.cancelFn()
		c.daemonWG.Wait()
		if ferr := c.flushStripes(ctx, c.pc.DirtyStripes(), extent.New(0, extent.Inf), ^extent.SN(0)); ferr != nil {
			err = ferr
		}
		if rerr := c.lc.ReleaseAll(ctx); rerr != nil && err == nil {
			err = rerr
		}
		c.lc.Close()
		c.closeConns()
	})
	return err
}

// Kill abruptly severs the client's connections without flushing or
// releasing anything — the client-crash model of §IV-C1. All dirty
// cached data is lost; the servers force-release this client's locks
// when the next conflicting request revokes them.
func (c *Client) Kill() {
	c.stopOnce.Do(func() {
		c.cancelFn()
		c.daemonWG.Wait()
		c.lc.Close()
		c.closeConns()
	})
}

func (c *Client) closeConns() {
	c.closePeers()
	for _, ep := range c.conns.Data {
		ep.Close()
	}
	for _, ep := range c.conns.Bulk {
		ep.Close()
	}
	if c.conns.Meta != nil && !c.isDataEndpoint(c.conns.Meta) {
		c.conns.Meta.Close()
	}
}

func (c *Client) isDataEndpoint(ep *rpc.Endpoint) bool {
	for _, d := range c.conns.Data {
		if d == ep {
			return true
		}
	}
	return false
}

// handleRevokeBatch processes a server's coalesced revocation callback:
// each entry runs the lock client's OnRevokeStamped path, in batch
// order, and the reply acks them all in one frame. The ack is the
// decoded entries themselves: every one was processed, and an ack
// encodes only the lock names.
func (c *Client) handleRevokeBatch(_ context.Context, p []byte) (wire.Msg, error) {
	var req wire.RevokeBatch
	if err := wire.Unmarshal(p, &req); err != nil {
		return nil, err
	}
	for _, e := range req.Entries {
		c.lc.OnRevokeStamped(dlm.ResourceID(e.Resource), dlm.LockID(e.LockID), dlm.StampFromWire(e.Handoff))
	}
	return &wire.RevokeBatchAck{Acked: req.Entries}, nil
}

// reportHandler answers a lock-state gather from server serverIdx
// (§IV-C2): the locks of the request's slots, claimed by a takeover, or
// with no slots the locks placed on that server, after its crash.
func (c *Client) reportHandler(serverIdx int) rpc.Handler {
	return func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.ReportRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		var records []dlm.LockRecord
		if len(req.Slots) == 0 {
			records = c.lc.Export(func(res dlm.ResourceID) bool {
				return meta.PlaceStripe(uint64(res), len(c.conns.Data)) == serverIdx
			})
		} else {
			slots := make([]partition.Slot, len(req.Slots))
			for i, s := range req.Slots {
				slots[i] = partition.Slot(s)
			}
			records = c.lc.ExportSlots(slots)
		}
		rep := &wire.LockReport{Locks: make([]wire.LockRecord, len(records))}
		for i, r := range records {
			rep.Locks[i] = dlm.RecordToWire(r)
		}
		return rep, nil
	}
}

// endpointFor returns the control endpoint of the server owning a
// resource (lock traffic).
func (c *Client) endpointFor(rid uint64) *rpc.Endpoint {
	return c.conns.Data[meta.PlaceStripe(rid, len(c.conns.Data))]
}

// bulkFor returns the bulk endpoint of the server owning a resource
// (flush and read traffic); without dedicated bulk connections it is the
// control endpoint.
func (c *Client) bulkFor(rid uint64) *rpc.Endpoint {
	if len(c.conns.Bulk) == len(c.conns.Data) && len(c.conns.Bulk) > 0 {
		return c.conns.Bulk[meta.PlaceStripe(rid, len(c.conns.Data))]
	}
	return c.endpointFor(rid)
}

// route implements the lock client's resource → server mapping: the
// static stripe placement, or — when the lock space is partitioned —
// the map-routed, redirect-retrying connection.
func (c *Client) route(res dlm.ResourceID) dlm.ServerConn {
	// A map installs only when a server served one (New).
	if c.partitionMap() != nil {
		return partConn{c: c}
	}
	return rpcConn{ep: c.endpointFor(uint64(res))}
}

// rpcConn adapts an RPC endpoint to dlm.ServerConn.
type rpcConn struct{ ep *rpc.Endpoint }

// lockCall is the request and reply of one Lock RPC. Call encodes the
// request before it returns and never decodes into the reply after, so
// Lock recycles the record as soon as it has copied the grant out.
type lockCall struct {
	req wire.LockRequest
	rep wire.LockGrant
}

var lockCalls = sync.Pool{New: func() any { return new(lockCall) }}

// Lock implements dlm.ServerConn.
func (c rpcConn) Lock(ctx context.Context, req dlm.Request) (dlm.Grant, error) {
	lc := lockCalls.Get().(*lockCall)
	defer func() {
		lc.req = wire.LockRequest{HandoffAcks: lc.req.HandoffAcks[:0]}
		lc.rep = wire.LockGrant{}
		lockCalls.Put(lc)
	}()
	w, rep := &lc.req, &lc.rep
	w.Resource, w.Client, w.Mode, w.Range, w.Extents = uint64(req.Resource), uint32(req.Client), uint8(req.Mode), req.Range, req.Extents
	for _, id := range req.HandoffAcks {
		w.HandoffAcks = append(w.HandoffAcks, uint64(id))
	}
	if err := c.ep.Call(ctx, wire.MLock, w, rep); err != nil {
		return dlm.Grant{}, err
	}
	g := dlm.Grant{
		LockID:      dlm.LockID(rep.LockID),
		Mode:        dlm.Mode(rep.Mode),
		Range:       rep.Range,
		SN:          rep.SN,
		State:       dlm.State(rep.State),
		Delegated:   rep.Delegated,
		GatherParts: int(rep.GatherParts),
		HandBack:    dlm.StampFromWire(rep.HandBack),
	}
	for _, id := range rep.Absorbed {
		g.Absorbed = append(g.Absorbed, dlm.LockID(id))
	}
	return g, nil
}

// releaseRequests recycles Release's request, which Call encodes before
// it returns, as lockCalls does Lock's.
var releaseRequests = sync.Pool{New: func() any { return new(wire.ReleaseRequest) }}

// Release implements dlm.ServerConn.
func (c rpcConn) Release(ctx context.Context, res dlm.ResourceID, id dlm.LockID) error {
	req := releaseRequests.Get().(*wire.ReleaseRequest)
	*req = wire.ReleaseRequest{Resource: uint64(res), LockID: uint64(id)}
	err := c.ep.Call(ctx, wire.MRelease, req, nil)
	releaseRequests.Put(req)
	return err
}

// Downgrade implements dlm.ServerConn.
func (c rpcConn) Downgrade(ctx context.Context, res dlm.ResourceID, id dlm.LockID, m dlm.Mode) error {
	return c.ep.Call(ctx, wire.MDowngrade, &wire.DowngradeRequest{Resource: uint64(res), LockID: uint64(id), NewMode: uint8(m)}, nil)
}

// HandoffAck implements dlm.HandoffAcker: standalone delegation
// confirmations, sent when no lock request comes soon enough to
// piggyback them. Every queued confirmation for the resource goes out
// as a single RPC.
func (c rpcConn) HandoffAck(ctx context.Context, res dlm.ResourceID, ids []dlm.LockID) error {
	if len(ids) == 0 {
		return nil
	}
	req := &wire.HandoffAckRequest{Resource: uint64(res), LockIDs: make([]uint64, len(ids))}
	for i, id := range ids {
		req.LockIDs[i] = uint64(id)
	}
	return c.ep.Call(ctx, wire.MHandoffAck, req, nil)
}

// flushForCancel is the lock client's data path: flush dirty data under
// the canceling lock, then drop the cached pages that lose their lock
// protection, and with them what the cache knew of the stripe's end
// beyond its own dirty bytes. Nothing is published besides the data:
// the data server the flush lands on raises the stripe's end itself,
// and a reader whose lock conflicts with this one, granted after the
// flush, learns that end from its read reply.
func (c *Client) flushForCancel(ctx context.Context, res dlm.ResourceID, rng extent.Extent, sn extent.SN) error {
	// Redo failed flush RPCs a few times (the recovery convention of
	// §IV-C2) before giving up with the ephemeral-cache semantics. A
	// dead context stops the retries — the caller is gone.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = c.flushGroup(ctx, []uint64{uint64(res)}, rng, sn); err == nil {
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		return err
	}
	// Only drop cache coverage the canceling lock was protecting; data
	// with newer SNs belongs to still-granted locks whose expanded
	// ranges may overlap this one.
	c.pc.InvalidateUpTo(uint64(res), rng, sn)
	return nil
}

// flushStripes flushes the dirty data of many stripes at once, fanning
// out across data servers: stripes are grouped by owning server and
// each group flushes through its own bulk endpoint and window, in
// ascending server order, so a multi-stripe Fsync overlaps every
// server's round trips. The first error cancels all remaining work.
func (c *Client) flushStripes(ctx context.Context, rids []uint64, rng extent.Extent, sn extent.SN) error {
	switch len(rids) {
	case 0:
		return nil
	case 1:
		return c.flushGroup(ctx, rids, rng, sn)
	}
	groups := make([][]uint64, len(c.conns.Data))
	for _, rid := range rids {
		si := meta.PlaceStripe(rid, len(c.conns.Data))
		groups[si] = append(groups[si], rid)
	}
	groups = slices.DeleteFunc(groups, func(g []uint64) bool { return len(g) == 0 })
	return c.fanOut(ctx, len(groups), func(ctx context.Context, i int) error {
		return c.flushGroup(ctx, groups[i], rng, sn)
	})
}

// fanOut runs fn(ctx, 0) … fn(ctx, n-1) at once, one coroutine each,
// spawned in index order, and returns the first error, which cancels
// the ctx the others run under.
func (c *Client) fanOut(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once  sync.Once
		first error
	)
	grp := sim.NewGroup(c.clk)
	for i := range n {
		grp.Go(func() {
			if err := fn(fctx, i); err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		})
	}
	grp.Wait()
	return first
}

// flushBatch is one flushGroup's record: the dirty blocks collected
// from every stripe of the group and the flush RPCs that carry them.
// Flushes run concurrently and their number grows with the flush
// backlog, so batches come from a pool; a batch has one user, the
// flushGroup that took it, and every goroutine that touches it (the
// sendChunks window) has finished when flushGroup returns it.
type flushBatch struct {
	blocks  []pagecache.Block // what was collected, stripe after stripe; Data lies in the frames
	stripes []collected       // the stripes that had dirty data
	frames  []flushFrame      // the flush RPCs, stripe after stripe
}

// flushFrame is one flush RPC: a FlushRequest built in its frame
// (wire.Body), which the page cache's collection pass filled straight
// from the pages, and its payload bytes.
type flushFrame struct {
	body    wire.Body
	payload int64
}

// collected is one stripe's share of a flushBatch: blocks[lo:hi].
type collected struct {
	rid    uint64
	lo, hi int
}

var flushBatches = sync.Pool{New: func() any { return new(flushBatch) }}

// recycle puts back the frames of RPCs that were not sent (a sent one
// went to the transport with its Body emptied), drops the batch's
// references to block data and pools it.
func (b *flushBatch) recycle() {
	for i := range b.frames {
		if f := b.frames[i].body.Frame; f != nil {
			wire.PutBuf(f)
		}
	}
	clear(b.blocks)
	clear(b.frames)
	b.blocks, b.stripes, b.frames = b.blocks[:0], b.stripes[:0], b.frames[:0]
	flushBatches.Put(b)
}

// collect drains rid's dirty blocks into the batch, straight into the
// frames of the flush RPCs that carry them. The blocks are disjoint by
// construction (the page cache removes each dirty extent as it is
// collected) and each carries the SN of the lock it was written under,
// so the RPCs may land at the server in any order — the server's extent
// cache resolves overlap by SN, not arrival order.
func (b *flushBatch) collect(pc *pagecache.Cache, rid uint64, rng extent.Extent, sn extent.SN, client uint32, maxRPC int64) {
	lo := len(b.blocks)
	b.blocks = pc.AppendDirty(b.blocks, rid, rng, sn, func(blocks []pagecache.Block) {
		b.split(rid, client, maxRPC, blocks)
	})
	if len(b.blocks) > lo {
		b.stripes = append(b.stripes, collected{rid: rid, lo: lo, hi: len(b.blocks)})
	}
}

// split cuts one stripe's blocks into flush RPCs of at most maxRPC
// payload bytes each (a larger block rides alone) and places every
// block's data in the frame of its RPC.
func (b *flushBatch) split(rid uint64, client uint32, maxRPC int64, blocks []pagecache.Block) {
	first, size := 0, int64(0)
	for i := range blocks {
		n := blocks[i].Range.Len()
		if size > 0 && size+n > maxRPC {
			b.addFrame(rid, client, blocks[first:i], size)
			first, size = i, 0
		}
		size += n
	}
	b.addFrame(rid, client, blocks[first:], size)
}

// addFrame lays out the FlushRequest that carries blocks in a frame of
// its exact size and points each block's Data at its slot there.
func (b *flushBatch) addFrame(rid uint64, client uint32, blocks []pagecache.Block, payload int64) {
	enc := wire.FlushEncoder(len(blocks), payload)
	wire.FlushHead(enc, rid, client, len(blocks))
	for i := range blocks {
		blocks[i].Data = wire.BlockSlot(enc, blocks[i].Range, uint64(blocks[i].SN))
	}
	b.frames = append(b.frames, flushFrame{body: wire.Body{Frame: wire.TakeFrame(enc)}, payload: payload})
}

// flushGroup flushes a set of stripes that live on the same data
// server. Any failure re-dirties every collected stripe of the group so
// the data is retried by a later flush (SN-tagged re-application is
// idempotent at the server). It takes a token of the server's flush
// window before it collects: a flush waiting for the window leaves its
// data dirty in the pages, where MaxDirty counts it, instead of holding
// it in frames. On an N-1 strided run dozens of flushes wait at once,
// and frames held through the wait drained the frame pool after every
// garbage collection.
func (c *Client) flushGroup(ctx context.Context, rids []uint64, rng extent.Extent, sn extent.SN) error {
	win := c.windows[meta.PlaceStripe(rids[0], len(c.conns.Data))]
	start := c.clk.Now()
	if err := c.takeSlot(ctx, win); err != nil {
		return err
	}
	b := flushBatches.Get().(*flushBatch)
	defer b.recycle()
	for _, rid := range rids {
		b.collect(c.pc, rid, rng, sn, uint32(c.cfg.ID), c.maxRPC)
	}
	if len(b.stripes) == 0 {
		sim.Send(c.clk, win, struct{}{})
		return nil
	}
	err := c.sendChunks(ctx, c.bulkFor(b.stripes[0].rid), win, b.frames)
	c.Stats.FlushGroupHist.Observe(c.clk.Since(start))
	if err != nil {
		// Redirty goes by range and SN; the bytes are still in the pages.
		for _, st := range b.stripes {
			c.pc.Redirty(st.rid, b.blocks[st.lo:st.hi])
		}
	}
	return err
}

// newWindow returns a flush window of n tokens.
func newWindow(n int) chan struct{} {
	win := make(chan struct{}, n)
	for range n {
		win <- struct{}{}
	}
	return win
}

// takeSlot takes a token of win, waiting for one unless ctx fires
// first; sim.Send puts it back.
func (c *Client) takeSlot(ctx context.Context, win chan struct{}) error {
	if _, _, err := sim.Recv(ctx, c.clk, win, nil, time.Time{}); err != nil {
		return wire.FromContext(err)
	}
	return nil
}

// sendChunk issues one flush RPC and accounts for it. It takes a token
// of win, the server's flush window, for the RPC; a nil win means the
// caller holds one.
func (c *Client) sendChunk(ctx context.Context, ep *rpc.Endpoint, win chan struct{}, f *flushFrame) error {
	if win != nil {
		if err := c.takeSlot(ctx, win); err != nil {
			return err
		}
		defer sim.Send(c.clk, win, struct{}{})
	}
	start := c.clk.Now()
	err := ep.Call(ctx, wire.MFlush, &f.body, nil)
	c.Stats.FlushRPCHist.Observe(c.clk.Since(start))
	if err != nil {
		return err
	}
	c.Stats.FlushedBytes.Add(f.payload)
	return nil
}

// sendChunks issues the flush RPCs with up to the window's size in
// flight at once. The caller hands it a token of win, the server's
// flush window: the first worker sends with it and puts it back when no
// RPC is left to claim, and the others take a token per RPC. The first
// error cancels the others: outstanding calls abort and their
// server-side work is withdrawn via rpc cancel frames.
func (c *Client) sendChunks(ctx context.Context, ep *rpc.Endpoint, win chan struct{}, frames []flushFrame) error {
	workers := min(cap(win), len(frames))
	if workers <= 1 {
		defer sim.Send(c.clk, win, struct{}{})
		for i := range frames {
			if err := c.sendChunk(ctx, ep, nil, &frames[i]); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	err := c.fanOut(ctx, workers, func(wctx context.Context, w int) error {
		slot := win
		if w == 0 {
			slot = nil // the caller's
			defer sim.Send(c.clk, win, struct{}{})
		}
		for wctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(frames) {
				return nil
			}
			if err := c.sendChunk(wctx, ep, slot, &frames[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil && ctx.Err() != nil {
		// The caller's context fired between chunks: no worker failed,
		// but the flush did not complete.
		err = wire.FromContext(ctx.Err())
	}
	return err
}

// flushDaemon implements the voluntary flush of §IV-C1: once dirty data
// crosses the MinDirty threshold, it is pushed to data servers in the
// background without releasing any lock.
func (c *Client) flushDaemon() {
	for c.clk.SleepCtx(c.baseCtx, c.cfg.FlushInterval) {
		if !c.pc.NeedsFlush() {
			continue
		}
		c.flushStripes(c.baseCtx, c.pc.DirtyStripes(), extent.New(0, extent.Inf), ^extent.SN(0))
	}
}

// Create creates a file with the given stripe layout and opens it.
// Context-less wrappers like this one run under the client's lifecycle
// context; the *Context variants take a per-call deadline.
func (c *Client) Create(path string, stripeSize int64, stripeCount uint32) (*File, error) {
	return c.CreateContext(c.baseCtx, path, stripeSize, stripeCount)
}

// CreateContext is Create bounded by ctx.
func (c *Client) CreateContext(ctx context.Context, path string, stripeSize int64, stripeCount uint32) (*File, error) {
	var rep wire.FileReply
	err := c.conns.Meta.Call(ctx, wire.MCreate, &wire.CreateRequest{
		Path: path, StripeSize: stripeSize, StripeCount: stripeCount,
	}, &rep)
	if err != nil {
		return nil, err
	}
	return c.fileOf(path, &rep), nil
}

// Open opens an existing file.
func (c *Client) Open(path string) (*File, error) {
	return c.OpenContext(c.baseCtx, path)
}

// OpenContext is Open bounded by ctx.
func (c *Client) OpenContext(ctx context.Context, path string) (*File, error) {
	var rep wire.FileReply
	if err := c.conns.Meta.Call(ctx, wire.MOpen, &wire.OpenRequest{Path: path}, &rep); err != nil {
		return nil, err
	}
	return c.fileOf(path, &rep), nil
}

// OpenOrCreate opens path, creating it with the layout if absent.
func (c *Client) OpenOrCreate(path string, stripeSize int64, stripeCount uint32) (*File, error) {
	f, err := c.Open(path)
	if err == nil {
		return f, nil
	}
	f, err = c.Create(path, stripeSize, stripeCount)
	if err == nil {
		return f, nil
	}
	return c.Open(path) // lost a create race; open what won
}

// Remove deletes a file from the namespace.
func (c *Client) Remove(path string) error {
	return c.conns.Meta.Call(c.baseCtx, wire.MRemove, &wire.OpenRequest{Path: path}, nil)
}

// List returns every path in the namespace.
func (c *Client) List() ([]string, error) {
	var rep wire.ListReply
	if err := c.conns.Meta.Call(c.baseCtx, wire.MList, &wire.Ack{}, &rep); err != nil {
		return nil, err
	}
	return rep.Paths, nil
}

func (c *Client) fileOf(path string, rep *wire.FileReply) *File {
	return &File{
		c:           c,
		path:        path,
		fid:         rep.FID,
		stripeSize:  rep.StripeSize,
		stripeCount: rep.StripeCount,
	}
}

// File is an open ccPFS file.
type File struct {
	c           *Client
	path        string
	fid         uint64
	stripeSize  int64
	stripeCount uint32
}

// Path returns the file path.
func (f *File) Path() string { return f.path }

// FID returns the file identifier.
func (f *File) FID() uint64 { return f.fid }

// Layout returns the stripe layout.
func (f *File) Layout() (stripeSize int64, stripeCount uint32) {
	return f.stripeSize, f.stripeCount
}

// Resource returns the lock resource of one stripe.
func (f *File) Resource(stripe uint32) dlm.ResourceID {
	return dlm.ResourceID(meta.ResourceID(f.fid, stripe))
}

// Size returns the file size: where its furthest stripe ends, by the
// stripes' data servers or by this client's own unflushed writes.
// Another client's unflushed writes do not count until they are
// flushed.
func (f *File) Size() (int64, error) { return f.SizeContext(f.c.baseCtx) }

// SizeContext is Size bounded by ctx.
func (f *File) SizeContext(ctx context.Context) (int64, error) { return f.size(ctx, nil) }

// size asks the data server of every stripe not in known for where the
// stripe ends — a read of no bytes each, all on the wire together — and
// returns the file's size they and the page cache give. The cache's end
// of a stripe is at most the stripe's true end and at least the end of
// this client's unflushed writes there, so the larger of the two is the
// stripe's end as this client sees it; for the stripes in known, whose
// end the caller has just learned, the cache's alone.
func (f *File) size(ctx context.Context, known []uint32) (int64, error) {
	type ask struct {
		st   uint32
		call rpc.Pending
	}
	asks := make([]ask, 0, f.stripeCount)
	var err error
	for st := range f.stripeCount {
		if slices.Contains(known, st) {
			continue
		}
		rid := uint64(f.Resource(st))
		call, e := f.c.bulkFor(rid).Go(ctx, wire.MRead, &wire.ReadRequest{Resource: rid})
		if e != nil {
			err = e
			break
		}
		asks = append(asks, ask{st, call})
	}
	var size int64
	for _, a := range asks {
		var rep wire.ReadReply
		e := a.call.Wait(ctx, &rep)
		rep.Release()
		if e != nil {
			err = cmp.Or(err, e)
			continue
		}
		size = max(size, f.fileEnd(a.st, rep.End))
	}
	if err != nil {
		return 0, err
	}
	for st := range f.stripeCount {
		size = max(size, f.fileEnd(st, f.c.pc.End(uint64(f.Resource(st)))))
	}
	return size, nil
}

// fileEnd converts stripe st's end to the file offset it reaches.
func (f *File) fileEnd(st uint32, end int64) int64 {
	return meta.FileEnd(end, f.stripeSize, f.stripeCount, st)
}

// WriteOptions tune a write for experiments; the zero value follows the
// paper's deterministic selection rules.
type WriteOptions struct {
	// Mode forces a lock mode (must cover the write); ModeNone selects
	// automatically per Fig. 10.
	Mode dlm.Mode
	// LockWholeStripe acquires [0, EOF) on each touched stripe instead
	// of the write's own range — the totally-conflicting workload of the
	// microbenchmarks (Fig. 16).
	LockWholeStripe bool
}

// WriteAt writes p at file offset off, returning once the data is in
// the client cache (the PIO semantics the paper measures). It runs
// under the client's lifecycle context; WriteAtContext takes a per-call
// deadline.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	return f.WriteAtContext(f.c.baseCtx, p, off)
}

// WriteAtContext is WriteAt bounded by ctx: a canceled context aborts
// the lock acquisition (withdrawing any queued remote request) and
// returns before the write lands in the cache.
func (f *File) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	return f.WriteAtOpts(ctx, p, off, WriteOptions{})
}

// WriteAtOpts is WriteAtContext with experiment controls.
func (f *File) WriteAtOpts(ctx context.Context, p []byte, off int64, o WriteOptions) (int, error) {
	if err := f.write(ctx, []WriteOp{{Off: off, Data: p}}, o); err != nil {
		return 0, err
	}
	return len(p), nil
}

// write is every write: it splits the ops into stripe segments, locks
// the touched stripes in ascending order, writes each segment into the
// cache under its stripe's lock and unlocks once all have landed.
func (f *File) write(ctx context.Context, ops []WriteOp, o WriteOptions) error {
	var segBuf [4]meta.Segment
	segs := segBuf[:0]
	for _, op := range ops {
		if op.Off < 0 {
			return fmt.Errorf("client: negative offset")
		}
		segs = meta.AppendSplit(segs, op.Off, int64(len(op.Data)), f.stripeSize, f.stripeCount)
	}
	if len(segs) == 0 {
		return nil
	}
	start := f.c.clk.Now()
	defer func() {
		f.c.Stats.IONs.Add(f.c.clk.Since(start).Nanoseconds())
		f.c.Stats.WriteOps.Add(1)
	}()
	var stripeBuf [4]uint32
	stripes := meta.AppendStripes(stripeBuf[:0], segs)
	mode := o.Mode
	if mode == dlm.ModeNone {
		mode = dlm.SelectMode(false, false, len(stripes) > 1)
	}
	var hbuf [4]*dlm.Handle
	handles, err := f.acquireStripes(ctx, hbuf[:0], stripes, segs, mode, o.LockWholeStripe)
	if err != nil {
		return err
	}
	rest := segs // the ops' segments, op after op
	for _, op := range ops {
		for n := int64(0); n < int64(len(op.Data)); rest = rest[1:] {
			seg := rest[0]
			rel := seg.FileOff - op.Off
			h := handleOf(stripes, handles, seg.Stripe)
			f.c.pc.Write(uint64(f.Resource(seg.Stripe)), seg.Off, op.Data[rel:rel+seg.Len], h.SN())
			n += seg.Len
		}
	}
	f.unlockAll(handles)
	return nil
}

// acquireStripes obtains one lock per touched stripe in ascending stripe
// order, timing the locking part, and appends them to handles: the lock
// of stripes[i] is handles[i] (see handleOf). A stripe's lock covers its
// segments' range, or with whole every stripe's [0, ∞); under
// DLM-datatype, segments that leave gaps are locked by their exact
// extent set.
func (f *File) acquireStripes(ctx context.Context, handles []*dlm.Handle, stripes []uint32, segs []meta.Segment, mode dlm.Mode, whole bool) ([]*dlm.Handle, error) {
	lockStart := f.c.clk.Now()
	defer func() { f.c.Stats.LockNs.Add(f.c.clk.Since(lockStart).Nanoseconds()) }()
	for _, st := range stripes {
		var h *dlm.Handle
		var err error
		if set := f.gappedSet(segs, st, whole); set != nil {
			h, err = f.c.lc.AcquireExtents(ctx, f.Resource(st), mode, set)
		} else {
			lo, hi, _ := meta.StripeRange(segs, st)
			h, err = f.c.lc.Acquire(ctx, f.Resource(st), mode, f.lockRange(lo, hi, whole))
		}
		if err != nil {
			f.unlockAll(handles)
			return nil, err
		}
		handles = append(handles, h)
	}
	return handles, nil
}

// gappedSet returns the exact extents of stripe st's segments when
// they leave gaps under DLM-datatype, and nil otherwise. Segments that
// follow on from each other leave none, and no set is built for them.
func (f *File) gappedSet(segs []meta.Segment, st uint32, whole bool) extent.Set {
	if whole || f.c.cfg.Policy.Expand != dlm.ExpandNone {
		return nil
	}
	end, follow := int64(-1), true
	for _, seg := range segs {
		if seg.Stripe == st {
			follow = follow && (end < 0 || seg.Off == end)
			end = seg.Off + seg.Len
		}
	}
	if follow {
		return nil
	}
	var exts []extent.Extent
	for _, seg := range segs {
		if seg.Stripe == st {
			exts = append(exts, extent.Span(seg.Off, seg.Len))
		}
	}
	if set := extent.NewSet(exts...); len(set) > 1 {
		return set
	}
	return nil
}

// handleOf returns the lock of stripe st, given the ascending stripes
// an operation locked and their handles, index for index.
func handleOf(stripes []uint32, handles []*dlm.Handle, st uint32) *dlm.Handle {
	i, _ := slices.BinarySearch(stripes, st)
	return handles[i]
}

func (f *File) lockRange(lo, hi int64, whole bool) extent.Extent {
	if whole {
		return extent.New(0, extent.Inf)
	}
	if f.c.cfg.Policy.Expand == dlm.ExpandNone {
		return extent.New(lo, hi) // datatype: exact, unaligned ranges
	}
	return extent.New(extent.AlignDown(lo, DefaultLockAlign), extent.AlignUp(hi, DefaultLockAlign))
}

func (f *File) unlockAll(handles []*dlm.Handle) {
	for _, h := range handles {
		f.c.lc.Unlock(h)
	}
}

// ReadAt reads into p from file offset off. It returns io.EOF when off
// is at or beyond the file size, and a short count when the file ends
// inside p.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtContext(f.c.baseCtx, p, off)
}

// ReadAtContext is ReadAt bounded by ctx.
func (f *File) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("client: negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	start := f.c.clk.Now()
	defer func() { f.c.Stats.IONs.Add(f.c.clk.Since(start).Nanoseconds()) }()

	// Lock the full requested range first: acquiring the PR locks is
	// what forces conflicting writers to flush their data, so what the
	// data servers reply — the bytes and where each stripe ends — holds
	// their writes.
	var segBuf [4]meta.Segment
	var stripeBuf [4]uint32
	segs := meta.AppendSplit(segBuf[:0], off, int64(len(p)), f.stripeSize, f.stripeCount)
	stripes := meta.AppendStripes(stripeBuf[:0], segs)
	var hbuf [4]*dlm.Handle
	handles, err := f.acquireStripes(ctx, hbuf[:0], stripes, segs, dlm.SelectMode(true, false, false), false)
	if err != nil {
		return 0, err
	}
	defer f.unlockAll(handles)

	var fbuf [4]uint32
	fetched := fbuf[:0] // the stripes whose end a reply just gave
	for _, seg := range segs {
		rid := uint64(f.Resource(seg.Stripe))
		dst := p[seg.FileOff-off : seg.FileOff-off+seg.Len]
		if !f.c.pc.Covered(rid, seg.Off, seg.Len) {
			f.c.Stats.ReadCacheMisses.Inc()
			if err := f.fetch(ctx, rid, seg, dst); err != nil {
				return 0, err
			}
			fetched = append(fetched, seg.Stripe)
		} else {
			f.c.Stats.ReadCacheHits.Inc()
		}
		f.c.pc.Read(rid, seg.Off, dst)
	}
	// The read's own stripes usually show the file reaching past it.
	// Only when they do not are the others asked: a later stripe may
	// hold data, and then the read's short tail is a hole of zeros.
	want := off + int64(len(p))
	var size int64
	for _, st := range stripes {
		size = max(size, f.fileEnd(st, f.c.pc.End(uint64(f.Resource(st)))))
	}
	if size < want {
		if size, err = f.size(ctx, fetched); err != nil {
			return 0, err
		}
	}
	switch {
	case off >= size:
		return 0, io.EOF
	case size < want:
		return int(size - off), io.EOF
	}
	return len(p), nil
}

// fetch reads a segment from its data server, fills the cache as clean
// data and records where the stripe ends, which the reply carries. The
// caller holds the segment's read lock, so a truncate that could lower
// that end revokes the lock first and drops it again. The reply holds
// no bytes at or past the stripe's end: fetch zeroes that part of dst,
// the segment's place in the caller's buffer, and the cache's own
// unflushed bytes there are read over it.
func (f *File) fetch(ctx context.Context, rid uint64, seg meta.Segment, dst []byte) error {
	ep := f.c.bulkFor(rid)
	var rep wire.ReadReply
	err := ep.Call(ctx, wire.MRead, &wire.ReadRequest{
		Resource: rid,
		Range:    extent.Span(seg.Off, seg.Len),
	}, &rep)
	if err != nil {
		return err
	}
	f.c.Stats.ReadRPCs.Add(1)
	for _, b := range rep.Blocks {
		// Tag the fill with the SN the server reported for the range,
		// not the read lock's SN: a fill must represent how new the
		// server's bytes actually are, so it can never clobber newer
		// (possibly dirty) cached data.
		f.c.pc.Fill(rid, b.Range.Start, b.Data, b.SN)
	}
	f.c.pc.RaiseEnd(rid, rep.End)
	if past := rep.End - seg.Off; past < seg.Len {
		clear(dst[max(past, 0):])
	}
	// The blocks alias the response frame; the cache has copied them, so
	// this is their last use and the frame goes back to its pool.
	rep.Release()
	return nil
}

// Append atomically appends p at the end of the file and returns the
// offset it landed at.
func (f *File) Append(p []byte) (int64, error) {
	return f.AppendContext(f.c.baseCtx, p)
}

// AppendContext is Append bounded by ctx. Reading the end is the
// implicit read that makes append select PW under the Fig. 10 rules, and
// the locks cover every stripe's whole range, as Truncate's do (and as
// Lustre's O_APPEND locks do): while they are held no other client's
// write can land anywhere in the file or sit in its cache unflushed, so
// the end the stripes' data servers and this client's cache give is the
// file's, and p lands there before another append can read the end. An
// append is flushed before its locks are let go, so the size it makes
// shows in every client's Size at once.
func (f *File) AppendContext(ctx context.Context, p []byte) (int64, error) {
	start := f.c.clk.Now()
	defer func() {
		f.c.Stats.IONs.Add(f.c.clk.Since(start).Nanoseconds())
		f.c.Stats.WriteOps.Add(1)
	}()
	handles, err := f.acquireStripes(ctx, nil, f.stripes(), nil, dlm.PW, true)
	if err != nil {
		return 0, err
	}
	defer f.unlockAll(handles)
	off, err := f.size(ctx, nil)
	if err != nil {
		return 0, err
	}
	segs := meta.SplitRange(off, int64(len(p)), f.stripeSize, f.stripeCount)
	rids := make([]uint64, 0, len(segs))
	for _, seg := range segs {
		rid := uint64(f.Resource(seg.Stripe))
		f.c.pc.Write(rid, seg.Off, p[seg.FileOff-off:seg.FileOff-off+seg.Len], handles[seg.Stripe].SN())
		if !slices.Contains(rids, rid) {
			rids = append(rids, rid)
		}
	}
	if err := f.c.flushStripes(ctx, rids, extent.New(0, extent.Inf), ^extent.SN(0)); err != nil {
		return 0, err
	}
	return off, nil
}

// stripes returns every stripe of the file, in order.
func (f *File) stripes() []uint32 {
	all := make([]uint32, f.stripeCount)
	for st := range all {
		all[st] = uint32(st)
	}
	return all
}

// Truncate sets the file size exactly, shorter or longer. It takes PW
// locks over every stripe's whole range, serializing with all in-flight
// IO.
func (f *File) Truncate(size int64) error {
	return f.TruncateContext(f.c.baseCtx, size)
}

// TruncateContext is Truncate bounded by ctx.
func (f *File) TruncateContext(ctx context.Context, size int64) error {
	if size < 0 {
		return fmt.Errorf("client: negative size")
	}
	handles, err := f.acquireStripes(ctx, nil, f.stripes(), nil, dlm.PW, true)
	if err != nil {
		return err
	}
	defer f.unlockAll(handles)
	// Each stripe's storing server cuts the stripe at its share of the
	// new size, under the stripe's PW lock SN, and the stripe ends there:
	// a later write past the cut must find zeros there, not the bytes the
	// truncate cut off, and a reader learns the new end from its next
	// read reply.
	cuts := make([]rpc.Pending, 0, len(handles))
	for st, h := range handles {
		rid := uint64(f.Resource(uint32(st)))
		req := &wire.TruncateRequest{Resource: rid, Size: meta.StripeEnd(size, f.stripeSize, f.stripeCount, uint32(st)), SN: uint64(h.SN())}
		p, e := f.c.bulkFor(rid).Go(ctx, wire.MTruncate, req)
		if e != nil {
			err = e
			break
		}
		cuts = append(cuts, p)
	}
	for _, p := range cuts {
		if e := p.Wait(ctx, nil); e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	// The cached bytes past each cut are gone on the data servers too;
	// the ones before it stay valid under the held locks. Each stripe's
	// end is now known exactly.
	for st := range f.stripeCount {
		rid := uint64(f.Resource(st))
		cut := meta.StripeEnd(size, f.stripeSize, f.stripeCount, st)
		f.c.pc.Invalidate(rid, extent.New(cut, extent.Inf))
		f.c.pc.RaiseEnd(rid, cut)
	}
	return nil
}

// Fsync flushes all of the file's dirty data to data servers without
// releasing any lock (§IV-C1); each data server raises its stripe's end
// as the data lands.
func (f *File) Fsync() error { return f.FsyncContext(f.c.baseCtx) }

// FsyncContext is Fsync bounded by ctx.
func (f *File) FsyncContext(ctx context.Context) error {
	rids := make([]uint64, 0, f.stripeCount)
	for st := uint32(0); st < f.stripeCount; st++ {
		rids = append(rids, uint64(f.Resource(st)))
	}
	return f.c.flushStripes(ctx, rids, extent.New(0, extent.Inf), ^extent.SN(0))
}

// WriteOp is one piece of a vectored write.
type WriteOp struct {
	Off  int64
	Data []byte
}

// WriteMulti writes a batch of (possibly non-contiguous, possibly
// overlapping-with-other-clients) pieces atomically: one lock per
// touched stripe covers all of that stripe's pieces, every lock is held
// until all pieces land in the cache, and locks are taken in ascending
// stripe order. Under SeqDLM the per-stripe lock is the minimum covering
// range (more conflicts, but early grant absorbs them — §V-D); under
// DLM-datatype it is the exact extent list where the pieces leave gaps.
func (f *File) WriteMulti(ops []WriteOp) error {
	return f.WriteMultiContext(f.c.baseCtx, ops)
}

// WriteMultiContext is WriteMulti bounded by ctx.
func (f *File) WriteMultiContext(ctx context.Context, ops []WriteOp) error {
	return f.write(ctx, ops, WriteOptions{})
}
