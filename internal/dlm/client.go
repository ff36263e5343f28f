package dlm

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ccpfs/internal/extent"
	"ccpfs/internal/shard"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// ServerConn is how a lock client reaches one lock server. The cluster
// layer implements it over RPC; unit tests implement it in-process.
// Every method honours its context: it is the per-call deadline that
// bounds the remote round trip.
type ServerConn interface {
	Lock(ctx context.Context, req Request) (Grant, error)
	Release(ctx context.Context, res ResourceID, id LockID) error
	Downgrade(ctx context.Context, res ResourceID, id LockID, m Mode) error
}

// Flusher is the client's data path: canceling a lock flushes the dirty
// data written under it (and under locks it absorbed) before release.
type Flusher interface {
	// FlushForCancel writes back all dirty data of res within rng whose
	// sequence number is at most sn, returning once it is durable on the
	// data server. ctx bounds the flush IO.
	FlushForCancel(ctx context.Context, res ResourceID, rng extent.Extent, sn extent.SN) error
}

// FlusherFunc adapts a function to Flusher.
type FlusherFunc func(context.Context, ResourceID, extent.Extent, extent.SN) error

// FlushForCancel implements Flusher.
func (f FlusherFunc) FlushForCancel(ctx context.Context, res ResourceID, rng extent.Extent, sn extent.SN) error {
	return f(ctx, res, rng, sn)
}

// The mutable per-handle state lives in one packed atomic word so the
// cached-hit path, revocation, absorption, and Unlock all race through
// CAS transitions on a single cell — no per-handle mutex, and Unlock,
// which has only the handle, takes no shard mutex either. Layout (low
// to high):
//
//	bits  0–31  holds       active Acquire references
//	bits 32–33  state       Granted / Canceling
//	bit  34     canceling   the cancel goroutine has been claimed (set once)
//	bit  35     wrote       a write-mode Acquire used this handle
//	bit  36     absorbed    merged into an upgraded lock; merged ptr is set
//	bit  37     releaseSent the Release RPC has been (or is being) issued
//	bits 40–47  mode        current Mode (changes on downgrade)
//
// The combinations the word makes atomic are the races between those
// paths: a hit's holds++ vs. a revocation's state=Canceling, an
// Unlock's holds-- vs. an upgrade's absorb-capture, and the one-shot
// claim of the cancel path (the canceling bit). See DESIGN.md §11.
const (
	hotHoldsMask   = uint64(1)<<32 - 1
	hotStateShift  = 32
	hotStateMask   = uint64(3) << hotStateShift
	hotCanceling   = uint64(1) << 34
	hotWrote       = uint64(1) << 35
	hotAbsorbed    = uint64(1) << 36
	hotReleaseSent = uint64(1) << 37
	hotModeShift   = 40
	hotModeMask    = uint64(0xFF) << hotModeShift
)

func hotHolds(w uint64) int   { return int(w & hotHoldsMask) }
func hotState(w uint64) State { return State(w >> hotStateShift & 3) }
func hotMode(w uint64) Mode   { return Mode(w >> hotModeShift & 0xFF) }

func hotWord(holds int, st State, m Mode, wrote bool) uint64 {
	w := uint64(holds) | uint64(st)<<hotStateShift | uint64(m)<<hotModeShift
	if wrote {
		w |= hotWrote
	}
	return w
}

// Handle is a client's reference to a granted lock. Handles are obtained
// from Acquire and returned with Unlock; the client caches GRANTED
// handles for reuse. res, id, sn, rng and released are immutable after
// the grant; all mutable state is in hot (and merged, which is written
// before hot's absorbed bit).
type Handle struct {
	c   *LockClient
	res ResourceID
	id  LockID
	sn  extent.SN
	rng extent.Extent

	hot atomic.Uint64
	// merged points to the handle that absorbed this one via lock
	// upgrading. It is published before the absorbed bit is set in hot,
	// so any reader that observes absorbed finds merged non-nil.
	merged   atomic.Pointer[Handle]
	released chan struct{}
	// stamp carries a handoff delegation received with a stamped
	// revocation (DESIGN.md §13). It is published before the state word
	// flips to CANCELING, so the cancel goroutine — claimed only after
	// that flip — always observes it and transfers the lock to the
	// stamped next owner instead of releasing it.
	stamp atomic.Pointer[HandoffStamp]
}

// Resource returns the lock's resource.
func (h *Handle) Resource() ResourceID { return h.res }

// ID returns the server-assigned lock ID.
func (h *Handle) ID() LockID { return h.id }

// SN returns the sequence number writes under this lock carry.
func (h *Handle) SN() extent.SN { return h.sn }

// Mode returns the current mode (it may change by conversion).
func (h *Handle) Mode() Mode { return hotMode(h.hot.Load()) }

// Range returns the granted (possibly expanded) range.
func (h *Handle) Range() extent.Extent { return h.rng }

// State returns the lock's client-side state.
func (h *Handle) State() State { return hotState(h.hot.Load()) }

// Released returns a channel closed once the lock is fully canceled
// (flushed and released).
func (h *Handle) Released() <-chan struct{} { return h.released }

// setMode swaps the mode bits, leaving the rest of the word to race on.
func (h *Handle) setMode(m Mode) {
	for {
		w := h.hot.Load()
		if h.hot.CompareAndSwap(w, w&^hotModeMask|uint64(m)<<hotModeShift) {
			return
		}
	}
}

// tryHit attempts the cached-lock hit: bump holds iff the handle is
// still GRANTED, unclaimed by a cancel, unabsorbed, and its mode covers
// need. The CAS makes the reuse check and the reference count one atomic
// step, so a racing revocation either sees our hold (and defers the
// cancel to our Unlock) or beats us (and we miss).
func (h *Handle) tryHit(need Mode) bool {
	for {
		w := h.hot.Load()
		if hotState(w) != Granted || w&(hotCanceling|hotAbsorbed) != 0 || !hotMode(w).Covers(need) {
			return false
		}
		nw := w + 1
		if need.IsWrite() {
			nw |= hotWrote
		}
		if h.hot.CompareAndSwap(w, nw) {
			return true
		}
	}
}

// ClientStats counts client-side lock activity.
type ClientStats struct {
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	Revocations atomic.Int64
	Cancels     atomic.Int64
	LockWaitNs  atomic.Int64 // time blocked in Acquire RPCs
	CancelNs    atomic.Int64 // time spent flushing + releasing
	// HandoffsSent counts locks this client transferred directly to a
	// peer; HandoffsRecv counts delegated grants this client activated
	// (peer transfer or server-sent activation).
	HandoffsSent atomic.Int64
	HandoffsRecv atomic.Int64
	// LeasesSent counts propagation-tree subtrees this client forwarded
	// to peers; LeasesRecv counts read leases installed from a
	// broadcast transfer or peer propagation (DESIGN.md §14).
	LeasesSent atomic.Int64
	LeasesRecv atomic.Int64
	// SolicitedAcks counts ack flushes this client sent because the
	// server solicited them rather than lazily (OnAckSolicit).
	SolicitedAcks atomic.Int64
}

// LockClient is the client half of the DLM: it caches grants, answers
// revocation callbacks, and runs the cancel path (downgrade → flush →
// release) of §III-D2.
//
// Concurrency: a shard mutex guards that shard's resource→handles map
// and its bookkeeping; a handle's own state is one packed atomic word.
// A cached-lock hit finds the handle under the shard mutex and claims it
// with one CAS on that word — no allocation, and nothing held across an
// RPC. See DESIGN.md §6 and §11.
type LockClient struct {
	id      ClientID
	policy  Policy
	router  func(ResourceID) ServerConn
	flusher Flusher

	// baseCtx is the client's lifecycle: background cancel goroutines
	// (spawned by Unlock and OnRevoke) run under it so a closed client
	// does not leave headless flush RPCs behind.
	baseCtx  context.Context
	cancelFn context.CancelFunc

	// shards holds the per-shard lock state, each made when a resource
	// first hashes to it (shard): a client's resources touch a few of
	// the 64.
	shards [shard.Count]atomic.Pointer[clientShard]

	// peer, when set, is the client-to-client transport handoff
	// transfers are sent over; nil falls back to releasing through the
	// server (clienthandoff.go).
	peer atomic.Pointer[peerSenderBox]

	// clk is the client's time source: wait-time stats, ack flush
	// timers, and background cancel goroutines run on it. The zero
	// value is the wall clock.
	clk sim.Clock

	// Stats counts client-side lock activity.
	Stats ClientStats
}

// clientShard carries the lock state of the resources hashing to one
// shard; mu guards every field. The zero value is an empty shard: the
// maps are made when first written (put).
type clientShard struct {
	mu sync.Mutex
	// cached lists each resource's cached handles in install order, the
	// order a hit scans them in.
	cached map[ResourceID][]*Handle
	acq    map[ResourceID]*sync.Mutex
	// pendingRevokes records revocation callbacks that arrived before
	// the corresponding grant reply was processed (the callback and the
	// reply race on different goroutines); the handle is created
	// directly in CANCELING state, carrying the revocation's handoff
	// stamp when it had one (nil for a plain revoke). tombstones
	// records locks already released or absorbed so late revocations
	// for them are ignored. Both are keyed by (resource, lock ID): lock
	// IDs are unique only within one server, and a client talks to many
	// servers.
	pendingRevokes map[lockKey]*HandoffStamp
	tombstones     map[lockKey]bool
	// Handoff reception state (clienthandoff.go): transfer parts that
	// arrived before their delegated grant reply was processed (a
	// gather collects several; a server-sent activation counts as all
	// of them), waiters blocked on a transfer, and delegation acks
	// queued for the server.
	arrivedHandoffs map[lockKey]int
	pendingHandoffs map[lockKey]*transferWaiter
	pendingAcks     map[ResourceID][]LockID
	ackTimer        *sim.ClockTimer
	// solicited marks delegated locks whose ack the server asked for
	// before their transfer arrived (OnAckSolicit).
	solicited map[lockKey]bool
	// Reader fan-out state (clientfan.go): resources in a fan rotation
	// — a write-mode stamped revocation displaced this client's read
	// lease, so the next lease arrives peer-to-peer — and shared-mode
	// acquires parked on that arrival instead of going to the server.
	fanStanding map[ResourceID]bool
	fanWaiters  map[ResourceID][]chan struct{}
}

// lockKey globally identifies a lock: IDs are per-server, resources map
// to exactly one server.
type lockKey struct {
	res ResourceID
	id  LockID
}

// put stores m[k] = v, making the map on first use. A client has 64
// shards of ten maps and touches the few its resources hash to, so the
// shard maps are made when first written (reads, deletes and ranges of a
// nil map already do the right thing).
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// NewLockClient returns a lock client. router maps a resource to the
// connection of the server owning it; flusher is the data path used at
// cancel time.
func NewLockClient(id ClientID, policy Policy, router func(ResourceID) ServerConn, flusher Flusher) *LockClient {
	ctx, cancel := context.WithCancel(context.Background())
	c := &LockClient{
		id:       id,
		policy:   policy,
		router:   router,
		flusher:  flusher,
		baseCtx:  ctx,
		cancelFn: cancel,
	}
	return c
}

// shard returns the shard owning res, making it on first use.
func (c *LockClient) shard(res ResourceID) *clientShard {
	p := &c.shards[shard.Of(uint64(res))]
	if sh := p.Load(); sh != nil {
		return sh
	}
	p.CompareAndSwap(nil, new(clientShard))
	return p.Load()
}

// liveShards returns the shards made so far.
func (c *LockClient) liveShards() []*clientShard {
	var out []*clientShard
	for i := range c.shards {
		if sh := c.shards[i].Load(); sh != nil {
			out = append(out, sh)
		}
	}
	return out
}

// ID returns the client identifier.
func (c *LockClient) ID() ClientID { return c.id }

// SetClock points the client at a (virtual) clock. Call before first
// use; the zero clock is the wall clock.
func (c *LockClient) SetClock(clk sim.Clock) { c.clk = clk }

// waitReleased blocks until h's released channel closes or ctx fires.
// Under a virtual clock it parks on the channel — every close site
// wakes it — and checks ctx at each wake; a run that exits mid-wait
// falls back to the real select.
func (c *LockClient) waitReleased(ctx context.Context, h *Handle) error {
	if v := c.clk.V(); v != nil {
		for {
			select {
			case <-h.released:
				return nil
			default:
			}
			if err := ctx.Err(); err != nil {
				return wire.FromContext(err)
			}
			if v.WaitOn(h.released) == sim.WakeExited {
				break
			}
		}
	}
	select {
	case <-h.released:
		return nil
	case <-ctx.Done():
		return wire.FromContext(ctx.Err())
	}
}

// Policy returns the client's policy.
func (c *LockClient) Policy() Policy { return c.policy }

func (c *LockClient) acquireMu(res ResourceID) *sync.Mutex {
	sh := c.shard(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.acq[res]
	if m == nil {
		m = &sync.Mutex{}
		put(&sh.acq, res, m)
	}
	return m
}

// Acquire obtains a lock covering rng in a mode that covers need,
// reusing a cached grant when possible. It blocks until granted or ctx
// fires; a canceled wait withdraws the remote request.
func (c *LockClient) Acquire(ctx context.Context, res ResourceID, need Mode, rng extent.Extent) (*Handle, error) {
	return c.acquire(ctx, res, need, rng, nil)
}

// AcquireExtents obtains a lock over an exact non-contiguous extent set
// (DLM-datatype). rng must be the set's bounds.
func (c *LockClient) AcquireExtents(ctx context.Context, res ResourceID, need Mode, set extent.Set) (*Handle, error) {
	b, ok := set.Bounds()
	if !ok {
		return nil, wire.Errorf(wire.CodeInvalid, "dlm: empty extent set")
	}
	return c.acquire(ctx, res, need, b, set)
}

// fastHit claims a reusable cached handle for res, or returns nil.
func (c *LockClient) fastHit(res ResourceID, need Mode, rng extent.Extent) *Handle {
	sh := c.shard(res)
	sh.mu.Lock()
	h := c.hitLocked(sh, res, need, rng)
	sh.mu.Unlock()
	return h
}

// hitLocked is fastHit's scan: the first cached handle covering rng
// whose tryHit CAS claims a hold. Caller holds sh.mu.
func (c *LockClient) hitLocked(sh *clientShard, res ResourceID, need Mode, rng extent.Extent) *Handle {
	if !c.policy.CacheLocks {
		return nil
	}
	for _, h := range sh.cached[res] {
		if h.rng.Contains(rng) && h.tryHit(need) {
			return h
		}
	}
	return nil
}

// adoptLease claims a hold on the cached handle a racing broadcast
// lease install created for a delegated grant. Returns nil when the
// lease is already CANCELING or gone — the lock left this client and
// the caller must re-request from the server.
func (c *LockClient) adoptLease(res ResourceID, id LockID, need Mode) *Handle {
	sh := c.shard(res)
	sh.mu.Lock()
	h := findByID(sh.cached[res], id)
	sh.mu.Unlock()
	if h == nil {
		return nil
	}
	for {
		w := h.hot.Load()
		if w&hotAbsorbed != 0 {
			h = h.merged.Load()
			continue
		}
		if hotState(w) != Granted || w&hotCanceling != 0 {
			return nil
		}
		nw := w + 1
		if need.IsWrite() {
			nw |= hotWrote
		}
		if h.hot.CompareAndSwap(w, nw) {
			return h
		}
	}
}

func (c *LockClient) acquire(ctx context.Context, res ResourceID, need Mode, rng extent.Extent, set extent.Set) (*Handle, error) {
	need = c.policy.MapMode(need)
	if h := c.fastHit(res, need, rng); h != nil {
		c.Stats.CacheHits.Add(1)
		return h, nil
	}
	am := c.acquireMu(res)
	am.Lock()
	defer am.Unlock()

	// Second chance under the acquire mutex: a racing acquire may have
	// just installed a covering grant while we waited for it.
	if h := c.fastHit(res, need, rng); h != nil {
		c.Stats.CacheHits.Add(1)
		return h, nil
	}
	c.Stats.CacheMisses.Add(1)

	// In a fan rotation the next read lease arrives peer-to-peer; park
	// briefly on its arrival instead of paying a server round trip. A
	// timeout (the reclaim interval) falls back to the server, which
	// self-heals any lease that was lost in flight.
	if c.policy.ReaderFanout && !need.IsWrite() && len(set) == 0 {
		if h := c.waitStanding(ctx, res, need, rng); h != nil {
			c.Stats.CacheHits.Add(1)
			return h, nil
		}
	}

	var g Grant
	for {
		start := c.clk.Now()
		acks := c.takeAcks(res)
		var err error
		g, err = c.router(res).Lock(ctx, Request{
			Resource:    res,
			Client:      c.id,
			Mode:        need,
			Range:       rng,
			Extents:     set,
			HandoffAcks: acks,
		})
		c.Stats.LockWaitNs.Add(c.clk.Since(start).Nanoseconds())
		if err != nil {
			// The acks may not have reached the server; re-queue them —
			// duplicate acks are idempotent server-side.
			c.requeueAcks(res, acks)
			return nil, err
		}
		if !g.Delegated {
			break
		}
		// The lock arrives from the previous holder, not from server
		// state: block until the transfer — every part of it, for a
		// gather — or a server-sent activation lands, then confirm the
		// delegation asynchronously.
		cached, err := c.waitTransfer(ctx, res, g)
		if err != nil {
			c.router(res).Release(c.baseCtx, res, g.LockID)
			return nil, err
		}
		if cached {
			// A broadcast lease install raced ahead of this grant reply
			// and already cached (and confirmed) the lock; adopt it. If
			// the lease was revoked and canceled before it could be
			// claimed, the lock left this client — request again.
			if h := c.adoptLease(res, g.LockID, need); h != nil {
				return h, nil
			}
			continue
		}
		c.Stats.HandoffsRecv.Add(1)
		c.queueAck(res, g.LockID)
		break
	}

	h := &Handle{
		c:        c,
		res:      res,
		id:       g.LockID,
		sn:       g.SN,
		rng:      g.Range,
		released: make(chan struct{}),
	}
	st := g.State
	sh := c.shard(res)
	sh.mu.Lock()
	// A revocation callback may have raced ahead of this grant reply;
	// honour it now (including its handoff stamp, for chained
	// delegations revoked before this reply was processed).
	k := lockKey{res, g.LockID}
	if stamp, ok := sh.pendingRevokes[k]; ok {
		delete(sh.pendingRevokes, k)
		if stamp != nil {
			h.stamp.Store(stamp)
		}
		st = Canceling
	}
	if hb := g.HandBack; hb != nil && len(hb.Leases) > 0 {
		// The grant pre-armed the next fan-out (DESIGN.md §14): this
		// lock is born CANCELING with a broadcast transfer obligation
		// toward the displaced reader cohort's fresh leases. The stamp
		// overrides any plain pending revoke — a nudge for a lock that
		// already owes a transfer adds nothing.
		h.stamp.Store(&HandoffStamp{
			NextOwner: hb.Leases[0].Owner,
			NewLockID: hb.Leases[0].LockID,
			Mode:      hb.Mode,
			SN:        hb.Leases[0].SN,
			MustFlush: true,
			Broadcast: hb,
		})
		st = Canceling
	}
	// A duplicate activation racing this install would otherwise leave
	// a stale arrival behind.
	delete(sh.arrivedHandoffs, k)
	h.hot.Store(hotWord(1, st, g.Mode, need.IsWrite()))

	list := sh.cached[res]
	// Merge locks the server absorbed during upgrading: transfer their
	// active holds and dirty-write flags, and forward their handles.
	for _, aid := range g.Absorbed {
		idx := slices.IndexFunc(list, func(x *Handle) bool { return x.id == aid })
		if idx < 0 || !h.absorb(list[idx]) {
			continue
		}
		old := list[idx]
		k := lockKey{res, aid}
		put(&sh.tombstones, k, true)
		delete(sh.pendingRevokes, k)
		list = slices.Delete(list, idx, idx+1)
		// The absorbed lock will never be canceled on its own; its
		// users now hold h, and its released channel tracks h's.
		c.clk.Go(func() {
			c.waitReleased(context.Background(), h)
			close(old.released)
			c.clk.Wakeup(old.released)
		})
	}
	put(&sh.cached, res, append(list, h))
	sh.mu.Unlock()
	return h, nil
}

// absorb folds old into h: one CAS sets old's absorbed bit while
// capturing its holds and wrote flag at that instant. Unlock racers
// either land their decrement before the capture (and are counted) or
// observe absorbed and chase old.merged to h. Returns false when old is
// already claimed by a cancel — then it must be left alone, matching
// the server, which never absorbs a canceling lock.
func (h *Handle) absorb(old *Handle) bool {
	old.merged.Store(h)
	for {
		w := old.hot.Load()
		if w&(hotCanceling|hotAbsorbed) != 0 {
			return false
		}
		if old.hot.CompareAndSwap(w, w|hotAbsorbed) {
			for {
				hw := h.hot.Load()
				nhw := hw + uint64(hotHolds(w))
				if w&hotWrote != 0 {
					nhw |= hotWrote
				}
				if h.hot.CompareAndSwap(hw, nhw) {
					return true
				}
			}
		}
	}
}

func findByID(list []*Handle, id LockID) *Handle {
	for _, h := range list {
		if h.id == id {
			return h
		}
	}
	return nil
}

// remove drops h from the cache and tombstones it. Caller holds sh.mu.
func (sh *clientShard) remove(h *Handle) {
	k := lockKey{h.res, h.id}
	put(&sh.tombstones, k, true)
	delete(sh.pendingRevokes, k)
	list := sh.cached[h.res]
	switch i := slices.Index(list, h); {
	case i < 0:
	case len(list) == 1:
		delete(sh.cached, h.res)
	default:
		sh.cached[h.res] = slices.Delete(list, i, i+1)
	}
}

// Unlock returns a handle after use. If the lock is CANCELING (or the
// policy does not cache locks) and this was the last user, the cancel
// path starts in the background: downgrade, flush, release.
func (c *LockClient) Unlock(h *Handle) {
	for {
		w := h.hot.Load()
		if w&hotAbsorbed != 0 {
			h = h.merged.Load()
			continue
		}
		if hotHolds(w) == 0 {
			panic("dlm: Unlock without matching Acquire")
		}
		nw := w - 1
		start := false
		if hotHolds(nw) == 0 {
			if !c.policy.CacheLocks && hotState(nw) == Granted {
				nw = nw&^hotStateMask | uint64(Canceling)<<hotStateShift
			}
			if hotState(nw) == Canceling && nw&hotCanceling == 0 {
				nw |= hotCanceling
				start = true
			}
		}
		if h.hot.CompareAndSwap(w, nw) {
			if start {
				// Copy h into a branch-local before capturing: h is
				// reassigned in the loop above, so capturing it directly
				// would heap-allocate the variable on EVERY Unlock — one
				// alloc per cached hit (see TestClientCachedHitAllocFree).
				hh := h
				c.clk.Go(func() { c.cancel(hh) })
			}
			return
		}
	}
}

// OnRevoke handles a server revocation callback: the lock enters
// CANCELING immediately (blocking reuse); returning from OnRevoke is the
// revocation reply. The cancel path runs once ongoing operations finish.
func (c *LockClient) OnRevoke(res ResourceID, id LockID) {
	c.OnRevokeStamped(res, id, nil)
}

// OnRevokeStamped handles a revocation carrying an optional handoff
// stamp (DESIGN.md §13): a stamped lock is canceled like any other,
// but its cancel path transfers the lock to the stamped next owner
// instead of releasing it back to the server.
func (c *LockClient) OnRevokeStamped(res ResourceID, id LockID, stamp *HandoffStamp) {
	c.Stats.Revocations.Add(1)
	sh := c.shard(res)
	sh.mu.Lock()
	if c.policy.ReaderFanout && stamp != nil && stamp.Mode.IsWrite() {
		// A writer is displacing this client's lock: the resource is in
		// a fan rotation, and the next read lease — pre-armed by the
		// writer's gather — will arrive peer-to-peer. Subsequent shared
		// acquires park on it instead of going to the server.
		put(&sh.fanStanding, res, true)
	}
	h := findByID(sh.cached[res], id)
	if h == nil {
		// Either the grant reply has not been processed yet (remember
		// the revocation — and its stamp — for when it is) or the lock
		// is already gone (tombstoned: ignore). Acking both cases is
		// correct.
		if k := (lockKey{res, id}); !sh.tombstones[k] {
			put(&sh.pendingRevokes, k, stamp)
		}
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	if stamp != nil {
		// Published before the CANCELING flip below, so the cancel
		// goroutine always sees it.
		h.stamp.Store(stamp)
	}
	for {
		w := h.hot.Load()
		if w&hotAbsorbed != 0 {
			return // absorbed into an upgraded lock; nothing to cancel
		}
		nw := w&^hotStateMask | uint64(Canceling)<<hotStateShift
		start := hotHolds(w) == 0 && w&hotCanceling == 0
		if start {
			nw |= hotCanceling
		}
		if h.hot.CompareAndSwap(w, nw) {
			if start {
				c.clk.Go(func() { c.cancel(h) })
			}
			return
		}
	}
}

// cancel runs the lock cancel path of §III-D2: automatic downgrade to
// the least restrictive mode (re-enabling early grant for waiters), data
// flushing tagged with the lock's SN, then release. Exactly one
// goroutine runs it per handle: its caller won the canceling bit.
func (c *LockClient) cancel(h *Handle) {
	start := c.clk.Now()
	c.Stats.Cancels.Add(1)
	ctx := c.baseCtx
	conn := c.router(h.res)

	w := h.hot.Load()
	mode, wrote, rng := hotMode(w), w&hotWrote != 0, h.rng

	if stamp := h.stamp.Load(); stamp != nil {
		// Handoff transfer (DESIGN.md §13): the lock leaves this client
		// entirely, so there is no downgrade to run — flush the dirty
		// data written under it, then hand it to the next owner
		// directly. Only if no peer path exists (or the send fails)
		// release through the server, which resolves the delegation and
		// activates the new owner itself.
		// Flush-vs-transfer ordering mirrors early grant (§III-A1): a
		// write-only successor (no implicit read) may own the lock while
		// this holder's dirty data is still in flight — its writes carry
		// a higher SN, so the extent cache resolves the overlap — which
		// keeps the flush off the successor's critical path. A reading
		// successor (PR/PW) must find the data on the data servers, so
		// for it the flush completes before the transfer. Either way the
		// flush obligation runs exactly once, here.
		deferFlush := !stamp.Mode.CanRead()
		if !deferFlush {
			c.flusher.FlushForCancel(ctx, h.res, rng, h.sn)
		}
		h.hot.Or(hotReleaseSent)
		var fwd []LockID
		if c.policy.ReaderFanout && stamp.Broadcast == nil {
			// Transferring toward a gathering writer: piggyback the
			// queued delegation acks on the part — the writer forwards
			// them on its next lock request, so reader acks cost no
			// server RPC (DESIGN.md §14).
			fwd = c.takeAcks(h.res)
		}
		sent := false
		if box := c.peer.Load(); box != nil && box.s != nil {
			if err := box.s.SendHandoff(ctx, stamp.NextOwner, h.res, stamp.NewLockID, fwd, stamp.Broadcast); err == nil {
				// Confirmation is the receiver's job: every lease
				// owner (the lead included) acks its own delegation on
				// install, so the server's reclaim entry stays live
				// until the lease has demonstrably landed.
				sent = true
				c.Stats.HandoffsSent.Add(1)
			}
		}
		if deferFlush {
			// The release fallback below must stay behind the flush:
			// a fully released write lock's data is on the data
			// servers by the time the server may grant readers.
			c.flusher.FlushForCancel(ctx, h.res, rng, h.sn)
		}
		if !sent {
			c.requeueAcks(h.res, fwd)
			conn.Release(ctx, h.res, h.id)
		}
		sh := c.shard(h.res)
		sh.mu.Lock()
		sh.remove(h)
		sh.mu.Unlock()
		close(h.released)
		c.clk.Wakeup(h.released)
		c.Stats.CancelNs.Add(c.clk.Since(start).Nanoseconds())
		return
	}

	flushed := false
	if c.policy.Conversion {
		switch d := Downgrade(mode, wrote); d {
		case NBW:
			if err := conn.Downgrade(ctx, h.res, h.id, NBW); err == nil {
				h.setMode(NBW)
			}
		case PR:
			// A PW held only by readers: flush first so readers granted
			// after the downgrade observe current data, then downgrade.
			c.flusher.FlushForCancel(ctx, h.res, rng, h.sn)
			flushed = true
			if err := conn.Downgrade(ctx, h.res, h.id, PR); err == nil {
				h.setMode(PR)
			}
		}
	}
	if !flushed {
		c.flusher.FlushForCancel(ctx, h.res, rng, h.sn)
	}
	// Once the release is in flight the lock must no longer be exported
	// for server recovery: its data flushing is complete (flush strictly
	// precedes release), so a recovering server that never hears about
	// it loses nothing — while restoring it after the release landed
	// would leave a zombie lock no one will ever release.
	h.hot.Or(hotReleaseSent)
	conn.Release(ctx, h.res, h.id)

	sh := c.shard(h.res)
	sh.mu.Lock()
	sh.remove(h)
	sh.mu.Unlock()
	close(h.released)
	c.clk.Wakeup(h.released)
	c.Stats.CancelNs.Add(c.clk.Since(start).Nanoseconds())
}

// CachedLocks returns the number of cached handles for a resource.
func (c *LockClient) CachedLocks(res ResourceID) int {
	sh := c.shard(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.cached[res])
}

// Close cancels the client's lifecycle context, aborting background
// cancel goroutines mid-RPC. Call after ReleaseAll on a graceful path;
// alone it is a hard stop.
func (c *LockClient) Close() { c.cancelFn() }

// ReleaseAll cancels every idle cached lock and waits for the cancels to
// finish — the client's shutdown barrier, bounded by ctx. Handles with
// active holds are marked CANCELING and will cancel at their final
// Unlock.
func (c *LockClient) ReleaseAll(ctx context.Context) error {
	c.FlushHandoffAcks(ctx)
	var toStart, toWait []*Handle
	for _, sh := range c.liveShards() {
		sh.mu.Lock()
		for _, list := range sh.cached {
			for _, h := range list {
				for {
					w := h.hot.Load()
					if w&hotAbsorbed != 0 {
						break
					}
					nw := w&^hotStateMask | uint64(Canceling)<<hotStateShift
					start := hotHolds(w) == 0 && w&hotCanceling == 0
					if start {
						nw |= hotCanceling
					}
					if !h.hot.CompareAndSwap(w, nw) {
						continue
					}
					if start {
						toStart = append(toStart, h)
					}
					toWait = append(toWait, h)
					break
				}
			}
		}
		sh.mu.Unlock()
	}
	// The shard maps iterate in random order; fix the cancel spawn and
	// wait order for deterministic virtual runs.
	sort.Slice(toStart, func(i, j int) bool {
		return toStart[i].res < toStart[j].res ||
			(toStart[i].res == toStart[j].res && toStart[i].id < toStart[j].id)
	})
	sort.Slice(toWait, func(i, j int) bool {
		return toWait[i].res < toWait[j].res ||
			(toWait[i].res == toWait[j].res && toWait[i].id < toWait[j].id)
	})
	for _, h := range toStart {
		h := h
		c.clk.Go(func() { c.cancel(h) })
	}
	for _, h := range toWait {
		if err := c.waitReleased(ctx, h); err != nil {
			return err
		}
	}
	return nil
}
