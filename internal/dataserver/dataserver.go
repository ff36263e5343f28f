// Package dataserver implements a ccPFS data server node: an IO service
// that lands SN-tagged flushes through the extent cache onto the stripe
// store, a colocated DLM service for the stripes the node owns (the
// paper's architecture in Fig. 13), an optional metadata service, and
// the revocation-callback plumbing back to clients.
package dataserver

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extcache"
	"ccpfs/internal/extent"
	"ccpfs/internal/meta"
	"ccpfs/internal/obs"
	"ccpfs/internal/partition"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/storage"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// MaxReadBytes bounds a single read RPC.
const MaxReadBytes = 64 << 20

// Config describes one data server.
type Config struct {
	// Name labels the server in logs.
	Name string
	// Policy selects the DLM the node runs.
	Policy dlm.Policy
	// Hardware is the simulated device/fabric model; the store is
	// wrapped with a simulated disk when DiskBandwidth or DiskLatency is
	// set.
	Hardware sim.Hardware
	// Store is the stripe store (a fresh MemStore when nil).
	Store storage.Store
	// Meta, when non-nil, makes this node also serve the namespace.
	Meta *meta.Service
	// ExtCacheThreshold overrides the extent cache entry budget.
	ExtCacheThreshold int
	// ExtentLog enables the per-stripe extent log for recovery.
	ExtentLog bool
	// ExtentLogDir, when set (with ExtentLog), persists the log to an
	// append-only file in this directory and replays it at startup, so
	// recovery works across real process restarts. The file is then the
	// only log: the cache keeps no in-memory copy.
	ExtentLogDir string
	// CleanupInterval runs the extent-cache cleanup daemon when > 0.
	CleanupInterval time.Duration
	// TraceEvents, when > 0, attaches a DLM protocol tracer keeping the
	// last TraceEvents events; the /debug/trace endpoint serves its dump.
	TraceEvents int
	// Partition, when non-nil, restricts the node's DLM to a subset of
	// the lock space's hash slots, with lease-based mastership and
	// takeover when a Coordinator is attached (see partition.go).
	Partition *PartitionConfig
}

// Server is a running data server.
type Server struct {
	cfg   Config
	clk   sim.Clock
	DLM   *dlm.Server
	Cache *extcache.Cache
	store storage.Store
	lockL *sim.RateLimiter

	// flushMu makes a flush's extent-cache merge and the submission of
	// its surviving extents to the store one step: the order flushes win
	// in is the order their bytes reach the store. flushVec is the write
	// vector of the flush holding flushMu; WriteV keeps no reference to
	// it.
	flushMu  sync.Mutex
	flushVec []storage.Vec

	rpcSrv *rpc.Server

	// mu guards the client endpoint registry. Revocation delivery and
	// the extent-cache mSN path only read it, so it is an RWMutex.
	mu      sync.RWMutex
	clients map[dlm.ClientID]*rpc.Endpoint

	// gate quiesces state-mutating operations during recovery: Recover
	// holds the write side while gathering and restoring lock records,
	// so a racing release cannot land before its lock is restored. Slot
	// adoption and migration freeze/install hold it for the same reason.
	gate sync.RWMutex

	// partMu serializes the lease daemon with the migration handlers so
	// a renewal never observes (and acts on) a half-transferred slot.
	partMu    sync.Mutex
	partState partState

	// baseCtx is the server's lifecycle: the cleanup daemon, revocation
	// callbacks, and recovery RPCs run under it. Shutdown cancels it
	// after the drain; Close cancels it immediately.
	baseCtx  context.Context
	cancelFn context.CancelFunc
	draining atomic.Bool

	closeOnce sync.Once
	logFile   *extcache.LogFile

	// obs is the server's metrics registry: DLM stats, RPC per-method
	// latencies (rpcMetrics is shared by every client endpoint), extent
	// cache occupancy, and flush byte counters all report into it.
	obs        *obs.Registry
	rpcMetrics *rpc.Metrics
	tracer     *dlm.Tracer

	// FlushedBytes counts flushed bytes stored (after stale-data
	// discard). The simulated device may put several stored versions of
	// a range on media in one operation, so this is not device traffic.
	FlushedBytes atomic.Int64
	// DiscardedBytes counts flushed bytes dropped as stale by the extent
	// cache.
	DiscardedBytes atomic.Int64
}

// New builds a server; call Serve with a listener to start it.
func New(cfg Config) *Server {
	st := cfg.Store
	if st == nil {
		st = storage.NewMemStore()
	}
	if cfg.Hardware.DiskBandwidth > 0 || cfg.Hardware.DiskLatency > 0 {
		st = storage.NewSimStore(st, cfg.Hardware)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		clk:      cfg.Hardware.Clock,
		store:    st,
		Cache:    extcache.New(cfg.ExtCacheThreshold, cfg.ExtentLog),
		lockL:    sim.NewRateLimiter(cfg.Hardware.ServerOPS),
		clients:  make(map[dlm.ClientID]*rpc.Endpoint),
		baseCtx:  ctx,
		cancelFn: cancel,
	}
	s.lockL.SetClock(s.clk)
	s.Cache.SetClock(s.clk)
	s.DLM = dlm.NewServer(cfg.Policy, notifier{s})
	s.DLM.SetClock(s.clk)
	if cfg.TraceEvents > 0 {
		s.tracer = dlm.NewTracer(cfg.TraceEvents)
		s.DLM.SetTracer(s.tracer)
	}
	s.registerObs()
	if cfg.Partition != nil {
		s.initPartition()
	}
	if cfg.ExtentLog && cfg.ExtentLogDir != "" {
		if lf, err := extcache.OpenLogFile(cfg.ExtentLogDir); err == nil {
			s.Cache.AttachLogFile(lf)
			s.Cache.ReplayLogFile(lf)
			s.logFile = lf
		}
	}
	return s
}

// registerObs wires every instrument the server owns into its registry.
// Funcs sample the existing atomics on Snapshot, so the hot paths pay
// nothing beyond the counters they already maintain.
func (s *Server) registerObs() {
	reg := obs.NewRegistry()
	s.obs = reg
	s.rpcMetrics = rpc.NewMetrics()
	reg.RegisterCollector(s.rpcMetrics)
	s.DLM.Stats.Register(reg)
	reg.Func("extcache.entries", func() int64 { return int64(s.Cache.Entries()) })
	reg.Func("extcache.bytes", func() int64 { return int64(s.Cache.Bytes()) })
	reg.Func("extcache.pinned", s.Cache.Pinned)
	reg.Func("extcache.inserts", func() int64 { i, _, _ := s.Cache.Stats(); return i })
	reg.Func("extcache.cleaned", func() int64 { _, c, _ := s.Cache.Stats(); return c })
	reg.Func("extcache.forced_syncs", func() int64 { _, _, f := s.Cache.Stats(); return f })
	// The storage.* names are always served; without a simulated device
	// (the real one's queue is the kernel's) they stay zero.
	devStats := new(storage.DeviceStats)
	if dev, ok := s.store.(*storage.SimStore); ok {
		devStats = &dev.Stats
	}
	devStats.Register(reg)
	reg.Func("dataserver.flushed_bytes", s.FlushedBytes.Load)
	reg.Func("dataserver.discarded_bytes", s.DiscardedBytes.Load)
	reg.Func("dataserver.clients", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return int64(len(s.clients))
	})
	if s.cfg.Partition != nil {
		reg.Func("partition.epoch", func() int64 { return int64(s.DLM.PartitionEpoch()) })
		reg.Func("partition.lease_takeovers", s.partState.takeovers.Load)
	}
}

// Obs returns the server's metrics registry.
func (s *Server) Obs() *obs.Registry { return s.obs }

// Serve starts accepting RPC connections on l and, if configured, the
// extent-cache cleanup daemon. It returns immediately.
func (s *Server) Serve(l transport.Listener) {
	s.rpcSrv = rpc.NewServer(l, rpc.Options{OnClose: s.dropEndpoint, Clock: s.clk}, s.setup)
	s.clk.Go(s.rpcSrv.Serve)
	if s.cfg.CleanupInterval > 0 {
		s.clk.Go(func() { s.Cache.Daemon(s.baseCtx, s.cfg.CleanupInterval, s.minSN, s.forceSync) })
	}
	if p := s.cfg.Partition; p != nil && p.Coordinator != nil {
		s.clk.Go(s.leaseDaemon)
	}
}

// Shutdown drains the server gracefully, bounded by ctx: new requests
// fail with wire.ErrShuttingDown, queued lock waiters are failed so
// blocked handlers return, in-flight handlers (flushes included) run to
// completion, then endpoints close, daemons stop, and the extent log is
// synced. It is idempotent with Close; whichever runs first wins.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.DLM.Shutdown() // unwedges handlers blocked in the grant wait
		if s.rpcSrv != nil {
			err = s.rpcSrv.Shutdown(ctx)
		}
		s.cancelFn()
		if s.logFile != nil {
			s.logFile.Sync()
			s.logFile.Close()
		}
	})
	return err
}

// Close stops the server immediately, without draining in-flight
// handlers. It is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.DLM.Shutdown()
		s.cancelFn()
		if s.rpcSrv != nil {
			s.rpcSrv.Close()
		}
		if s.logFile != nil {
			s.logFile.Sync()
			s.logFile.Close()
		}
	})
}

// Addr returns the RPC listen address.
func (s *Server) Addr() string { return s.rpcSrv.Addr() }

func (s *Server) dropEndpoint(ep *rpc.Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, e := range s.clients {
		if e == ep {
			delete(s.clients, id)
		}
	}
}

// notifier delivers revocation callbacks over the client's RPC
// connection and acks to the DLM when the reply returns. A vanished
// client's locks are acked and force-released so the queue never wedges
// on a dead holder.
type notifier struct{ s *Server }

// Handoff implements dlm.Notifier: the server-sent activation of
// a delegated lock, used when the previous holder released instead of
// transferring or the reclaimer force-resolved the delegation, or the
// gather part of a member that released.
func (n notifier) Handoff(ctx context.Context, client dlm.ClientID, res dlm.ResourceID, id, member dlm.LockID) {
	n.s.mu.RLock()
	ep := n.s.clients[client]
	n.s.mu.RUnlock()
	if ep == nil {
		// The new owner is gone too; release the resolved lock so
		// waiters proceed.
		n.s.DLM.Release(res, id)
		return
	}
	if err := ep.Call(ctx, wire.MHandoff, &wire.HandoffRequest{Resource: uint64(res), LockID: uint64(id),
		Member: uint64(member), Final: member == 0}, nil); err != nil {
		n.s.DLM.Release(res, id)
	}
}

// SolicitAck implements dlm.Notifier: ask the owner of a delegated
// lock to confirm it now. Best effort — if the owner is gone or the
// call fails, its lazy ack or the reclaimer resolves the delegation as
// before.
func (n notifier) SolicitAck(ctx context.Context, client dlm.ClientID, res dlm.ResourceID, id dlm.LockID) {
	n.s.mu.RLock()
	ep := n.s.clients[client]
	n.s.mu.RUnlock()
	if ep == nil {
		return
	}
	_ = ep.Call(ctx, wire.MAckSolicit, &wire.AckSolicit{Resource: uint64(res), LockID: uint64(id)}, nil)
}

// revokeDelivery is one RevokeBatch delivery's record: the request and
// its reply, and the wire entries and stamps the request carries,
// stamps[i] belonging to entries[i]. Deliveries run concurrently, one
// per client with revocations pending, so records come from a pool; a
// record has one user, the RevokeBatch that took it, until Call has
// returned — by then the request is encoded and the reply decoded — and
// RevokeBatch has read the acks. The stamps keep their lease arrays
// from one delivery to the next.
type revokeDelivery struct {
	req     wire.RevokeBatch
	ack     wire.RevokeBatchAck
	entries []wire.RevokeEntry
	stamps  []wire.Stamp
}

var revokeDeliveries = sync.Pool{New: func() any { return new(revokeDelivery) }}

// RevokeBatch implements dlm.Notifier: every revocation pending for one
// client goes out as a single callback RPC, with the acks batched on the
// return path. Entries a failed call or a partial ack leaves
// unacknowledged belong to a holder that is gone: its dirty data is lost
// by the client-cache durability convention (§IV-C1), so they are acked
// and force-released here and waiters proceed. For a stamped revocation
// that release also resolves the delegation: the engine activates the
// successor itself.
func (n notifier) RevokeBatch(ctx context.Context, client dlm.ClientID, revs []dlm.Revocation) {
	n.s.mu.RLock()
	ep := n.s.clients[client]
	n.s.mu.RUnlock()
	if ep == nil {
		for _, rv := range revs {
			n.s.DLM.RevokeAck(rv.Resource, rv.Lock)
			n.s.DLM.Release(rv.Resource, rv.Lock)
		}
		return
	}
	d := revokeDeliveries.Get().(*revokeDelivery)
	d.entries = slices.Grow(d.entries[:0], len(revs))[:len(revs)]
	d.stamps = slices.Grow(d.stamps[:0], len(revs))[:len(revs)]
	for j, rv := range revs {
		e := &d.entries[j]
		*e = wire.RevokeEntry{Resource: uint64(rv.Resource), LockID: uint64(rv.Lock),
			Handoff: dlm.StampToWire(rv.Handoff, &d.stamps[j])}
	}
	d.req.Entries = d.entries
	var acked []wire.RevokeEntry
	if ep.Call(ctx, wire.MRevokeBatch, &d.req, &d.ack) == nil {
		acked = d.ack.Acked
	}
	for _, rv := range revs {
		n.s.DLM.RevokeAck(rv.Resource, rv.Lock)
		if !takeAck(&acked, uint64(rv.Resource), uint64(rv.Lock)) {
			n.s.DLM.Release(rv.Resource, rv.Lock)
		}
	}
	clear(d.entries)
	revokeDeliveries.Put(d)
}

// takeAck removes the ack of lock (res, id) from acked and reports
// whether it was there. A client acks in batch order, so the match is
// the first entry and a batch costs one pass; an ack out of order is
// still found.
func takeAck(acked *[]wire.RevokeEntry, res, id uint64) bool {
	a := *acked
	for k := range a {
		if a[k].Resource == res && a[k].LockID == id {
			a[k] = a[0]
			*acked = a[1:]
			return true
		}
	}
	return false
}

// minSN is the extent-cache cleanup task's DLM query. Once the lock
// space is partitioned, the stripes this node stores and the stripes
// it masters are independent sets, so the query is routed to the
// slot's current master when it is not local.
func (s *Server) minSN(stripe uint64, rng extent.Extent) (extent.SN, bool) {
	if p := s.cfg.Partition; p != nil && p.RemoteMinSN != nil &&
		s.DLM.CheckMaster(dlm.ResourceID(stripe)) != nil {
		return p.RemoteMinSN(stripe, rng)
	}
	return s.DLM.MinSN(dlm.ResourceID(stripe), rng)
}

// forceSync is the extent-cache cleanup task's forced synchronization,
// routed like minSN when the stripe's slot is mastered elsewhere.
func (s *Server) forceSync(stripe uint64) {
	if p := s.cfg.Partition; p != nil && p.RemoteForceSync != nil &&
		s.DLM.CheckMaster(dlm.ResourceID(stripe)) != nil {
		p.RemoteForceSync(stripe)
		return
	}
	s.SyncStripe(stripe)
}

// SyncStripe reclaims every outstanding write lock of a stripe this
// server masters by taking (and releasing) a whole-range read lock as
// the server-local client 0: the revocation makes each writer flush.
func (s *Server) SyncStripe(stripe uint64) {
	g, err := s.DLM.Lock(s.baseCtx, dlm.Request{
		Resource: dlm.ResourceID(stripe),
		Client:   0,
		Mode:     dlm.PR,
		Range:    extent.New(0, extent.Inf),
	})
	if err != nil {
		return
	}
	s.DLM.Release(dlm.ResourceID(stripe), g.LockID)
}

// Recover rebuilds the DLM state after a crash by gathering lock
// records from every connected client (§IV-C2) and restoring them into
// the engine. Run it after the extent log is replayed (Cache.Replay, or
// New with ExtentLogDir) and before new lock traffic is admitted: every
// sequencer resumes above the newest SN the extent cache records, so a
// write granted after recovery orders above data whose locks were
// released before the crash, which no client can replay. ctx bounds the
// per-client report round trips.
func (s *Server) Recover(ctx context.Context) error {
	s.gate.Lock()
	defer s.gate.Unlock()
	var floor extent.SN
	if sn, ok := s.Cache.NewestSN(); ok {
		floor = sn + 1
	}
	return s.DLM.Restore(dlm.LockState{Floor: floor, Resources: s.gather(ctx, nil)})
}

// gather asks every connected client to replay its locks of slots, or
// with no slots the locks placed on this server (§IV-C2), and groups
// them for Restore. A client that does not answer loses its locks, like
// the paper's aborted-job convention. The caller holds the handler gate
// across the gather and the restore: a release racing the gather could
// otherwise land before its lock is restored and leave a zombie lock.
func (s *Server) gather(ctx context.Context, slots []partition.Slot) []dlm.ResourceState {
	req := &wire.ReportRequest{Slots: make([]uint32, len(slots))}
	for i, sl := range slots {
		req.Slots[i] = uint32(sl)
	}
	var records []dlm.LockRecord
	for _, ep := range s.clientEndpoints() {
		var rep wire.LockReport
		if err := ep.Call(ctx, wire.MReport, req, &rep); err != nil {
			continue
		}
		for _, l := range rep.Locks {
			records = append(records, dlm.RecordFromWire(l))
		}
	}
	return dlm.ByResource(records)
}

// clientEndpoints snapshots the registered control endpoints in client-ID
// order. The registry is a map; gathering in its iteration order would
// make replay RPC timing differ run to run under a virtual clock.
func (s *Server) clientEndpoints() []*rpc.Endpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := slices.Sorted(maps.Keys(s.clients))
	eps := make([]*rpc.Endpoint, len(ids))
	for i, id := range ids {
		eps[i] = s.clients[id]
	}
	return eps
}

// setup registers the RPC handlers on a new endpoint.
func (s *Server) setup(ep *rpc.Endpoint) {
	// One shared Metrics across every client endpoint: per-method handle
	// latencies aggregate server-wide.
	ep.SetMetrics(s.rpcMetrics)
	ep.Handle(wire.MHello, func(ctx context.Context, p []byte) (wire.Msg, error) {
		var req wire.HelloRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		if req.ClientID == 0 {
			return nil, wire.Errorf(wire.CodeInvalid, "dataserver: client must bring a cluster-assigned ID")
		}
		if !req.Bulk {
			// Only the control connection receives revocation callbacks;
			// bulk connections carry flush and read traffic.
			s.mu.Lock()
			s.clients[dlm.ClientID(req.ClientID)] = ep
			s.mu.Unlock()
		}
		return &wire.HelloReply{ClientID: req.ClientID}, nil
	})

	ep.Handle(wire.MLock, func(ctx context.Context, p []byte) (wire.Msg, error) {
		var req wire.LockRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		if s.draining.Load() {
			return nil, wire.ErrShuttingDown
		}
		// Barrier only: a request must not enter the engine mid-recovery
		// (it would be resolved against missing state), but the gate
		// cannot be held across the blocking grant wait — the grant may
		// need a release, which itself passes the gate.
		s.gate.RLock()
		s.gate.RUnlock()                                 //nolint:staticcheck // empty critical section is the barrier
		if err := s.lockL.Wait(ctx, false); err != nil { // the lock server's OPS bound
			return nil, wire.FromContext(err)
		}
		var set extent.Set
		if len(req.Extents) > 0 {
			set = extent.NewSet(req.Extents...)
		}
		var acks []dlm.LockID
		for _, id := range req.HandoffAcks {
			acks = append(acks, dlm.LockID(id))
		}
		g, err := s.DLM.Lock(ctx, dlm.Request{
			Resource:    dlm.ResourceID(req.Resource),
			Client:      dlm.ClientID(req.Client),
			Mode:        dlm.Mode(req.Mode),
			Range:       req.Range,
			Extents:     set,
			HandoffAcks: acks,
		})
		if err != nil {
			return nil, err
		}
		reply := &wire.LockGrant{
			LockID:      uint64(g.LockID),
			Mode:        uint8(g.Mode),
			Range:       g.Range,
			SN:          g.SN,
			State:       uint8(g.State),
			Delegated:   g.Delegated,
			GatherParts: uint32(g.GatherParts),
			HandBack:    dlm.StampToWire(g.HandBack, nil),
		}
		for _, id := range g.Absorbed {
			reply.Absorbed = append(reply.Absorbed, uint64(id))
		}
		return reply, nil
	})

	ep.Handle(wire.MRelease, func(ctx context.Context, p []byte) (wire.Msg, error) {
		var req wire.ReleaseRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		s.gate.RLock()
		defer s.gate.RUnlock()
		if err := s.lockL.Wait(ctx, false); err != nil {
			return nil, wire.FromContext(err)
		}
		// A release for a slot this node no longer masters must be
		// redirected, not swallowed: the lock record migrated with the
		// slot, and a no-op "success" here would leave it held forever
		// at the new master. The gate makes the check-then-release
		// atomic with respect to migration.
		if err := s.DLM.CheckMaster(dlm.ResourceID(req.Resource)); err != nil {
			return nil, err
		}
		s.DLM.Release(dlm.ResourceID(req.Resource), dlm.LockID(req.LockID))
		return &wire.Ack{}, nil
	})

	ep.Handle(wire.MDowngrade, func(ctx context.Context, p []byte) (wire.Msg, error) {
		var req wire.DowngradeRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		s.gate.RLock()
		defer s.gate.RUnlock()
		if err := s.lockL.Wait(ctx, false); err != nil {
			return nil, wire.FromContext(err)
		}
		if err := s.DLM.CheckMaster(dlm.ResourceID(req.Resource)); err != nil {
			return nil, err
		}
		if err := s.DLM.Downgrade(dlm.ResourceID(req.Resource), dlm.LockID(req.LockID), dlm.Mode(req.NewMode)); err != nil {
			return nil, err
		}
		return &wire.Ack{}, nil
	})

	ep.Handle(wire.MHandoffAck, func(ctx context.Context, p []byte) (wire.Msg, error) {
		var req wire.HandoffAckRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		s.gate.RLock()
		defer s.gate.RUnlock()
		// A standalone ack only retires a delegation, and a queued lock
		// request may be waiting for exactly that: it is admitted ahead
		// of the requests in the OPS queue (DESIGN.md §7.1).
		if err := s.lockL.Wait(ctx, true); err != nil {
			return nil, wire.FromContext(err)
		}
		// Like a release, an ack for a migrated slot must be redirected:
		// the freeze already resolved the delegation, and the new master
		// treats the late ack as a duplicate.
		if err := s.DLM.CheckMaster(dlm.ResourceID(req.Resource)); err != nil {
			return nil, err
		}
		var buf [8]dlm.LockID // a usual batch stays on the stack
		ids := buf[:0]
		for _, id := range req.LockIDs {
			ids = append(ids, dlm.LockID(id))
		}
		s.DLM.HandoffAck(dlm.ResourceID(req.Resource), ids...)
		return &wire.Ack{}, nil
	})

	ep.Handle(wire.MFlush, func(ctx context.Context, p []byte) (wire.Msg, error) {
		var one [1]wire.Block // a client's flush RPC most often carries one block
		req, err := wire.UnmarshalFlush(p, one[:0])
		if err != nil {
			return nil, err
		}
		s.gate.RLock()
		defer s.gate.RUnlock()
		if err := s.flush(ctx, req.Resource, req.Blocks); err != nil {
			return nil, err
		}
		return &wire.Ack{}, nil
	})

	ep.Handle(wire.MTruncate, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.TruncateRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		if err := s.Truncate(&req); err != nil {
			return nil, err
		}
		return &wire.Ack{}, nil
	})

	ep.Handle(wire.MRead, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.ReadRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		return s.handleRead(&req)
	})

	s.setupPartition(ep)
	if s.cfg.Meta != nil {
		s.setupMeta(ep)
	}
	ep.Start()
}

// Flush is the server-side write routine of Fig. 15: merge every
// block's SN into the extent cache, submit the surviving update set to
// the store in one vectored write, discard the rest, then wait for the
// device once. Merge and submission happen under the stripe's flush
// mutex, so two flushes of overlapping ranges reach the store in the
// order they won in; the wait happens outside it, so the extents of
// concurrent flushes sit in the device queue together. It is the body of
// the MFlush RPC; bench's dataserver.drive.flush_ns drive also calls it
// directly.
func (s *Server) Flush(req *wire.FlushRequest) error {
	return s.flush(context.TODO(), req.Resource, req.Blocks)
}

// flush is Flush for a request decoded from the payload of the MFlush
// handler whose context is ctx. The handler's request frame is offered
// to the store with the write (rpc.TakePayload), so a flush that makes
// new chunks from most of its frame is stored without a copy; a frame
// the store did not keep goes back to its pool as soon as WriteV returns,
// instead of waiting out the device backlog. Called with no handler's
// ctx (Server.Flush), it offers no frame and the store copies.
func (s *Server) flush(ctx context.Context, stripe uint64, blocks []wire.Block) error {
	var total int64
	for _, b := range blocks {
		if b.Range.Len() != int64(len(b.Data)) {
			return fmt.Errorf("dataserver: block range %v does not match %d data bytes", b.Range, len(b.Data))
		}
		total += b.Range.Len()
	}
	var wrote int64
	s.flushMu.Lock()
	vec := s.flushVec[:0]
	for _, b := range blocks {
		for _, w := range s.Cache.Apply(stripe, b.Range, b.SN) {
			vec = append(vec, storage.Vec{Off: w.Start, Data: b.Data[w.Start-b.Range.Start : w.End-b.Range.Start]})
			wrote += w.Len()
		}
	}
	frame := rpc.TakePayload(ctx)
	pending := s.store.WriteV(stripe, vec, frame)
	clear(vec) // the vector points into the request frame; it must not keep it reachable
	s.flushVec = vec[:0]
	s.flushMu.Unlock()
	if !pending.Kept() {
		wire.PutBuf(frame) // req's block data is gone from here on
	}
	if err := pending.Wait(); err != nil {
		return err
	}
	s.FlushedBytes.Add(wrote)
	s.DiscardedBytes.Add(total - wrote)
	// The budget check is one atomic load (DESIGN.md §6), so the write
	// routine tests it on every flush and wakes the cleanup daemon as
	// soon as the cache goes over budget rather than waiting out the
	// next tick.
	if s.Cache.NeedsCleanup() {
		s.Cache.Kick()
	}
	return nil
}

// Truncate cuts a stripe for a truncating client, which holds a PW lock
// over the whole stripe under req.SN, so no newer SN is recorded past
// the cut. The cut [Size, ∞) enters the extent cache at req.SN: a flush
// older than the truncate (from a lock released before its grant, still
// in flight) loses to it there, as Fig. 15's merge rule has it, and
// cannot bring the cut bytes back or raise the stripe's end past the
// cut, since the store sees only the extents that won. The store drops
// the stored bytes past Size and sets the stripe's end to Size, shorter
// or longer. Both happen under flushMu, in order with every flush's
// merge and submission. It is the body of the MTruncate RPC.
func (s *Server) Truncate(req *wire.TruncateRequest) error {
	if req.Size < 0 {
		return fmt.Errorf("dataserver: negative truncate size %d", req.Size)
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.Cache.Apply(req.Resource, extent.New(req.Size, extent.Inf), extent.SN(req.SN))
	return s.store.Truncate(req.Resource, req.Size)
}

// handleRead serves a read with the stripe's end (wire.ReadReply.End),
// which the store keeps under the rule the extent cache applies to
// bytes: a flush raises it only by the extents that won their merge, and
// a truncate's cut sets it at the cut's SN (Truncate). The reply holds
// the range's bytes below the end only, at most MaxReadBytes of them; a
// read of an empty range, or of one wholly past the end, returns the
// end alone.
func (s *Server) handleRead(req *wire.ReadRequest) (wire.Msg, error) {
	if req.Range.End == extent.Inf {
		return nil, fmt.Errorf("dataserver: invalid read range %v", req.Range)
	}
	end, err := s.store.End(req.Resource)
	if err != nil {
		return nil, err
	}
	r := req.Range
	if r.End = min(r.End, end); r.End <= r.Start {
		return &wire.ReadReply{End: end}, nil
	}
	if r.Len() > MaxReadBytes {
		return nil, fmt.Errorf("dataserver: invalid read range %v", req.Range)
	}
	// The store reads straight into the reply frame, which the rpc layer
	// then hands to the transport as it is (wire.Body).
	body, err := wire.ReadReplyBody(r, end, func(data []byte) (uint64, error) {
		if err := s.store.ReadAt(req.Resource, r.Start, data); err != nil {
			return 0, err
		}
		sn, _ := s.Cache.MaxSN(req.Resource, r)
		return sn, nil
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

func (s *Server) setupMeta(ep *rpc.Endpoint) {
	m := s.cfg.Meta
	ep.Handle(wire.MCreate, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.CreateRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		f, err := m.Create(req.Path, req.StripeSize, req.StripeCount)
		if err != nil {
			return nil, err
		}
		return fileReply(f), nil
	})
	ep.Handle(wire.MOpen, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.OpenRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		f, err := m.Open(req.Path)
		if err != nil {
			return nil, err
		}
		return fileReply(f), nil
	})
	ep.Handle(wire.MList, func(_ context.Context, p []byte) (wire.Msg, error) {
		return &wire.ListReply{Paths: m.List()}, nil
	})
	ep.Handle(wire.MRemove, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.OpenRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		if err := m.Remove(req.Path); err != nil {
			return nil, err
		}
		return &wire.Ack{}, nil
	})
}

func fileReply(f meta.File) *wire.FileReply {
	return &wire.FileReply{
		FID:         f.FID,
		StripeSize:  f.StripeSize,
		StripeCount: f.StripeCount,
	}
}
