package dlm

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/extent"
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
// data written under it (and under locks it absorbed) before release. A
// Flusher that is also a WindowedFlusher admits the cancels as well.
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

// WindowedFlusher is a Flusher whose flushes to one data server share
// a window of tokens. A cancel whose first step is its flush waits for a
// token in that window, with no coroutine (startCancel), and starts
// holding one, which its flush spends.
type WindowedFlusher interface {
	Flusher
	// Window returns the window res's flushes go through.
	Window(res ResourceID) *sim.Window
	// FlushHeld is FlushForCancel by a cancel holding a token of res's
	// window, asked for at since: the flush spends it.
	FlushHeld(ctx context.Context, res ResourceID, rng extent.Extent, sn extent.SN, since time.Time) error
}

// Handle is a client's reference to a granted lock. Handles are obtained
// from Acquire and returned with Unlock; the client caches GRANTED
// handles for reuse. c, mu, res, id, sn, rng and released are immutable
// after the grant; every other field is guarded by mu and written only
// by LockClient.step.
type Handle struct {
	c        *LockClient // the client caching it, whose cancel path cancelTask runs
	mu       *sync.Mutex // the client's state mutex (clientState.mu)
	res      ResourceID
	id       LockID
	sn       extent.SN
	rng      extent.Extent
	released chan struct{}

	holds int // active Acquire references
	state State
	mode  Mode // changes on downgrade
	wrote bool // a write-mode Acquire used this handle
	// canceling records that a step claimed the cancel path (set once).
	canceling bool
	// releaseSent records that the cancel is about to release or
	// transfer the lock: Export no longer reports it.
	releaseSent bool
	// merged is the handle that absorbed this one via lock upgrading;
	// this handle's users hold merged now. absorbed lists the handles
	// merged into this one, directly or not: their released channels
	// close with this one's.
	merged   *Handle
	absorbed []*Handle
	// stamp carries a handoff delegation received with a stamped
	// revocation, or pre-armed by a grant's hand-back (DESIGN.md §13,
	// §14): the cancel path transfers the lock to the stamped next owner
	// instead of releasing it.
	stamp *Stamp
	// win is the cancel's place in a flush window (startCancel), which
	// writes it before the cancel starts; the cancel reads it.
	win sim.Entry
	// A delegated grant's handle is cached from its grant reply on but
	// is not usable until its transfer arrives (DESIGN.md §13): need
	// counts the distinct parts still missing, got the members whose
	// parts came, and awaiting holds until the acquire waiting for the
	// lock has taken it and queued its ack.
	need     int
	got      []LockID
	awaiting bool
}

// Resource returns the lock's resource.
func (h *Handle) Resource() ResourceID { return h.res }

// ID returns the server-assigned lock ID.
func (h *Handle) ID() LockID { return h.id }

// SN returns the sequence number writes under this lock carry.
func (h *Handle) SN() extent.SN { return h.sn }

// Mode returns the current mode (it may change by conversion).
func (h *Handle) Mode() Mode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mode
}

// Range returns the granted (possibly expanded) range.
func (h *Handle) Range() extent.Extent { return h.rng }

// State returns the lock's client-side state.
func (h *Handle) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Released returns a channel closed once the lock is fully canceled
// (flushed and released).
func (h *Handle) Released() <-chan struct{} { return h.released }

// claim takes one more hold on h for an acquire needing need, if h is
// still GRANTED and not awaiting its transfer. A revocation's CANCELING
// flip and a hit's hold are both steps under the client mutex: either
// the revocation sees the hold (and the last Unlock starts the cancel)
// or the hit misses.
func (h *Handle) claim(need Mode) bool {
	if h.state != Granted || h.awaiting {
		return false
	}
	h.holds++
	h.wrote = h.wrote || need.IsWrite()
	return true
}

// arrive counts an arrival of h's transfer: a part, once per cohort
// member it names, or the whole lock (a lease, which the server's
// activation carries). It reports whether the arrival completed the
// transfer; one at a handle that awaits none is a duplicate.
func (h *Handle) arrive(member LockID, whole bool) bool {
	switch {
	case h.need == 0 || !whole && slices.Contains(h.got, member):
		return false
	case whole || h.need == 1:
		h.need = 0
	default:
		h.got = append(h.got, member)
		h.need--
	}
	return h.need == 0
}

// claimCancel is the one rule for who starts a cancel: the step that
// leaves h CANCELING with no holds claims its cancel path, once.
func (h *Handle) claimCancel() bool {
	if h.state != Canceling || h.holds > 0 || h.canceling {
		return false
	}
	h.canceling = true
	return true
}

// ClientStats counts client-side lock activity.
//
// Cache hits are counted by the hit step itself, under the client mutex
// (LockClient.CacheHits), so the hit path pays no atomic.
type ClientStats struct {
	CacheMisses atomic.Int64
	Revocations atomic.Int64
	Cancels     atomic.Int64
	LockWaitNs  atomic.Int64 // time blocked in Acquire RPCs
	CancelNs    atomic.Int64 // time spent flushing + releasing
	// HandoffsSent counts locks this client transferred directly to a
	// peer; HandoffsRecv counts delegated grants this client activated
	// (peer transfer or server-sent activation), once each: when its
	// acquire takes it, or when it installs as a lease.
	HandoffsSent atomic.Int64
	HandoffsRecv atomic.Int64
	// LeasesSent counts propagation-tree subtrees this client forwarded
	// to peers; LeasesRecv counts leases installed with no acquire waiting:
	// handback and propagated read leases (DESIGN.md §14), activations.
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
// Concurrency: every transition of the client's lock state is one step
// under its mutex (clientState.mu), and what it decides happens after
// the mutex drops (do). A cached-lock hit is one step: no allocation,
// and nothing held across an RPC. See DESIGN.md §6 and §11.
type LockClient struct {
	id      ClientID
	policy  Policy
	router  func(ResourceID) ServerConn
	flusher Flusher
	windows WindowedFlusher // flusher, when it is one

	// baseCtx is the client's lifecycle: background cancel goroutines
	// (spawned by Unlock and OnRevoke) run under it so a closed client
	// does not leave headless flush RPCs behind.
	baseCtx  context.Context
	cancelFn context.CancelFunc

	// st is the lock state of every resource the client touches.
	st clientState

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

// clientState carries the client's lock state; mu guards every field.
type clientState struct {
	mu sync.Mutex
	// cached lists each resource's cached handles in install order, the
	// order a hit scans them in.
	cached map[ResourceID][]*Handle
	hits   int64 // acquires served from cached
	// busy marks each resource one of the client's acquires holds past
	// its cache miss (acquireMiss); another acquire of it waits until
	// the mark clears, then tries the cache again.
	busy map[ResourceID]bool
	// cond is what every waiting acquire parks on: for a busy mark to
	// clear (waitIdle), and for a delegated lock to arrive (await).
	cond *sim.Cond
	// notes remembers locks the client does not cache (lockNote), keyed
	// by (resource, lock ID): lock IDs are unique only within one
	// server, and a client talks to many servers.
	notes map[lockKey]lockNote
	// early lists, keyed like notes, the members whose transfer parts
	// raced ahead of their lock's grant reply; the grant takes them.
	early map[lockKey][]LockID
	// Delegation acks queued for the server (clienthandoff.go).
	pendingAcks map[ResourceID][]LockID
	ackTimer    *sim.ClockTimer
	// fanStanding marks the resources in a fan rotation: a write-mode
	// stamped revocation displaced this client's read lease, so the next
	// lease arrives peer-to-peer, and a shared-mode acquire waits for it
	// instead of going to the server (await).
	fanStanding map[ResourceID]bool
}

// lockKey globally identifies a lock: IDs are per-server, resources map
// to exactly one server.
type lockKey struct {
	res ResourceID
	id  LockID
}

// lockNote is what a client remembers of a lock it does not cache: one
// whose grant reply or lease has not been installed yet (messages about
// it raced ahead), or one that is gone. Notes of gone locks are never
// dropped.
type lockNote struct {
	// revoked: a revocation arrived first; the handle is born CANCELING,
	// carrying its stamp (nil for a plain revoke).
	stamp   *Stamp
	revoked bool
	// solicited: the server asked for the delegation's ack before its
	// transfer arrived (OnAckSolicit).
	solicited bool
	// gone: released, transferred or absorbed; late messages for it are
	// dropped.
	gone bool
}

// setNote stores n for k, dropping the entry once it says nothing.
func (st *clientState) setNote(k lockKey, n lockNote) {
	if n == (lockNote{}) {
		delete(st.notes, k)
		return
	}
	st.notes[k] = n
}

// retire notes that k is gone: it will never be installed or canceled
// here again.
func (st *clientState) retire(k lockKey) {
	n := st.notes[k]
	n.gone, n.revoked, n.stamp = true, false, nil
	st.setNote(k, n)
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
		st: clientState{
			cached:      make(map[ResourceID][]*Handle),
			busy:        make(map[ResourceID]bool),
			notes:       make(map[lockKey]lockNote),
			early:       make(map[lockKey][]LockID),
			pendingAcks: make(map[ResourceID][]LockID),
			fanStanding: make(map[ResourceID]bool),
		},
	}
	c.windows, _ = flusher.(WindowedFlusher)
	c.st.cond = sim.NewCond(c.clk, &c.st.mu)
	return c
}

// ID returns the client identifier.
func (c *LockClient) ID() ClientID { return c.id }

// SetClock points the client at a (virtual) clock. Call before first
// use; the zero clock is the wall clock.
func (c *LockClient) SetClock(clk sim.Clock) {
	c.clk = clk
	c.st.cond = sim.NewCond(clk, &c.st.mu)
}

// waitReleased blocks until h's released channel closes or ctx fires.
func (c *LockClient) waitReleased(ctx context.Context, h *Handle) error {
	_, _, err := sim.Recv(ctx, c.clk, h.released, nil, time.Time{})
	return wire.FromContext(err)
}

// cancelTask is h's cancel path as a sim.Task, spawned with no closure.
type cancelTask Handle

func (t *cancelTask) Run() { h := (*Handle)(t); h.c.cancel(h) }

// cevKind names one lock-client transition. The set is closed: every
// change to a handle's holds, state, mode, stamp, release mark or
// transfer, and to the client's cache, notes, early parts, ack queue and
// fan rotation, is one of these, applied by step.
type cevKind uint8

const (
	cevHit         cevKind = iota // an acquire claims a cached lock covering its range
	cevGrant                      // a grant reply's lock joins the cache
	cevRevoke                     // a revocation, plain or stamped, arrives
	cevUnlock                     // a user returns its handle
	cevShutdown                   // the shutdown barrier marks a cached lock CANCELING
	cevDowngraded                 // the cancel path converted the lock
	cevReleasing                  // the cancel path is about to release or transfer the lock
	cevCancelDone                 // the lock left the client
	cevArrive                     // a transfer arrives: a part, a lease, or the server's activation
	cevAwait                      // an acquire waits for a delegated lock: its transfer, or a fan lease
	cevGiveUp                     // ... and stops waiting
	cevSolicit                    // the server asks for a delegation's ack now
	cevTakeAcks                   // queued acks leave on a lock request or a transfer
	cevRequeueAcks                // acks come back from a failed send, or arrive piggybacked
	cevDrainAcks                  // the ack timer or the shutdown barrier empties the queue
)

// clientEvent is one transition and its operands. A grant describes the
// lock in id, sn, rng and mode, a lease in stamp.
type clientEvent struct {
	kind      cevKind
	need      Mode          // hit, grant, await: the mode the acquire needs
	mode      Mode          // grant: the lock's; downgraded: the new one
	state     State         // grant
	delegated bool          // grant
	id        LockID        // the lock
	member    LockID        // arrive: the cohort member a part retires
	sn        extent.SN     // grant
	rng       extent.Extent // hit, await: the range needed; grant: the lock's
	parts     int           // grant: the transfer parts a delegated grant collects
	h         *Handle       // unlock, shutdown, downgraded, releasing, cancelDone; await: the delegated grant
	stamp     *Stamp        // revoke: the delegation; grant: the hand-back; arrive: a lease, this client's first
	ids       []LockID      // grant: the locks absorbed; requeueAcks: the acks
}

// clientEffects is what one step decided: its answer to the caller,
// and what apply must do once the client mutex drops, in the order the
// flags are listed. The answers a flag acts on are named beside it. A
// step that makes a lock arrive wakes the waiting acquires itself
// (c.st.cond), ahead of every effect.
type clientEffects struct {
	h       *Handle                 // hit, grant, await: the handle claimed
	miss    bool                    // hit: missed, and marked the resource busy
	park    bool                    // await: the lock has not arrived
	pending map[ResourceID][]LockID // drainAcks
	acks    []LockID                // takeAcks: the acks taken

	send   bool // send acks at once: the server solicited them
	cancel bool // start h's cancel path
}

// do runs one transition: step under c.st.mu, then the effects it
// decided, once c.st.mu has dropped.
func (c *LockClient) do(res ResourceID, ev *clientEvent, fx *clientEffects) {
	c.st.mu.Lock()
	c.step(res, ev, fx)
	c.st.mu.Unlock()
	if fx.send || fx.cancel {
		c.apply(res, fx)
	}
}

// step is the lock client: it applies one transition to the state of
// res, collecting into fx its answer and what must follow. Called with
// c.st.mu held. The two steps of a cached hit, cevHit and cevUnlock,
// have small functions of their own, which keeps the hit path short.
func (c *LockClient) step(res ResourceID, ev *clientEvent, fx *clientEffects) {
	switch ev.kind {
	case cevHit:
		c.stepHit(res, ev, fx)
	case cevUnlock:
		c.stepUnlock(ev, fx)
	default:
		c.stepOther(res, ev, fx)
	}
}

func (c *LockClient) stepHit(res ResourceID, ev *clientEvent, fx *clientEffects) {
	if fx.h = c.hitLocked(res, ev.need, ev.rng); fx.h == nil && !c.st.busy[res] {
		c.st.busy[res] = true
		fx.miss = true
	}
}

func (c *LockClient) stepUnlock(ev *clientEvent, fx *clientEffects) {
	h := ev.h
	for h.merged != nil {
		h = h.merged
	}
	if h.holds == 0 {
		panic("dlm: Unlock without matching Acquire")
	}
	h.holds--
	if h.holds == 0 && !c.policy.CacheLocks && h.state == Granted {
		h.state = Canceling
	}
	fx.h, fx.cancel = h, h.claimCancel()
}

func (c *LockClient) stepOther(res ResourceID, ev *clientEvent, fx *clientEffects) {
	k := lockKey{res, ev.id}
	switch ev.kind {
	case cevGrant:
		// A reply installs its lock, a delegated one awaiting its
		// transfer (cevAwait takes it once the transfer is in). A reply
		// that the server's activation beat (a slot freeze can resolve a
		// delegation while its reply is in flight) claims the lease the
		// activation installed, unless that lease is leaving or already
		// gone: then the acquire starts over.
		h := findByID(c.st.cached[res], ev.id)
		switch {
		case h == nil && ev.delegated && c.st.notes[k].gone:
			return
		case h == nil:
			need := 0
			if ev.delegated {
				need = max(ev.parts, 1)
			}
			h = c.st.install(&Handle{c: c, res: res, id: ev.id, sn: ev.sn, rng: ev.rng,
				holds: 1, state: ev.state, mode: ev.mode, wrote: ev.need.IsWrite(), need: need, awaiting: ev.delegated})
		case !h.claim(ev.need):
			return
		}
		if ev.stamp != nil {
			// The grant pre-armed the next fan-out (DESIGN.md §14): this
			// lock is born CANCELING, owing the displaced reader cohort's
			// fresh leases the handback's transfer. The stamp overrides
			// any plain pending revoke — a nudge for a lock that already
			// owes a transfer adds nothing.
			h.state, h.stamp = Canceling, ev.stamp
		}
		// Merge locks the server absorbed during upgrading: their active
		// holds and dirty-write flags move to h, and their users' Unlocks
		// follow merged to it. A lock whose cancel is claimed is left
		// alone, matching the server, which never absorbs a canceling
		// lock.
		for _, aid := range ev.ids {
			list := c.st.cached[res]
			i := slices.IndexFunc(list, func(x *Handle) bool { return x.id == aid })
			if i < 0 || list[i].canceling {
				continue
			}
			old := list[i]
			h.holds += old.holds
			h.wrote = h.wrote || old.wrote
			h.absorbed = append(append(h.absorbed, old), old.absorbed...)
			old.merged = h
			c.st.cached[res] = slices.Delete(list, i, i+1)
			c.st.retire(lockKey{res, aid})
		}
		fx.h = h
	case cevRevoke:
		if ev.stamp != nil && ev.stamp.Mode.IsWrite() && !ev.stamp.MustFlush {
			// A writer is displacing this client's read lock: the
			// resource is in a fan rotation, and the next read lease —
			// pre-armed by the writer's gather — will arrive
			// peer-to-peer. Subsequent shared acquires park on it
			// instead of going to the server.
			c.st.fanStanding[res] = true
		}
		h := findByID(c.st.cached[res], ev.id)
		if h == nil {
			// Either the grant reply has not been processed yet (note the
			// revocation, and its stamp, for the install) or the lock is
			// already gone (ignore). Acking both cases is correct.
			if n := c.st.notes[k]; !n.gone {
				n.revoked, n.stamp = true, ev.stamp
				c.st.setNote(k, n)
			}
			return
		}
		if ev.stamp != nil {
			h.stamp = ev.stamp
		}
		h.state = Canceling
		fx.h, fx.cancel = h, h.claimCancel()
	case cevShutdown:
		h := ev.h
		h.state = Canceling
		fx.h, fx.cancel = h, h.claimCancel()
		if fx.cancel && h.stamp == nil {
			// This cancel ends in a release, and the release retires the
			// delegation as its ack would (DESIGN.md §13): the queued ack
			// would cost the server a lock op for nothing.
			c.st.dropAck(res, h.id)
		}
	case cevDowngraded:
		ev.h.mode = ev.mode
	case cevReleasing:
		ev.h.releaseSent = true
	case cevCancelDone:
		c.st.drop(ev.h)
	case cevArrive:
		// A transfer arrives: a part, a lease, or the server's
		// activation, which carries its lock's lease. One for a lock
		// gone from here is dropped, and one for a lock that awaits no
		// transfer is a duplicate. A part that raced ahead of its grant
		// reply waits in early for the grant. A lease nobody awaits
		// enters the cache as a zero-hold handle — canceled at once if a
		// revocation raced ahead (its transfer obligation, if stamped,
		// still runs) — and its ack is queued. An arrival that completes
		// a lock wakes the acquires waiting for it.
		if c.st.notes[k].gone {
			return
		}
		switch h := findByID(c.st.cached[res], ev.id); {
		case h != nil:
			if !h.arrive(ev.member, ev.stamp != nil) {
				return
			}
		case ev.stamp == nil:
			if got := c.st.early[k]; !slices.Contains(got, ev.member) {
				c.st.early[k] = append(got, ev.member)
			}
			return
		default:
			mine := ev.stamp.Leases[0]
			h = c.st.install(&Handle{c: c, res: res, id: mine.LockID, sn: mine.SN, rng: ev.stamp.Range, state: Granted, mode: ev.stamp.Mode})
			fx.h, fx.cancel = h, h.claimCancel()
			c.Stats.HandoffsRecv.Add(1)
			c.Stats.LeasesRecv.Add(1)
			c.queueAck(res, ev.id, fx)
		}
		c.st.cond.Broadcast()
	case cevAwait:
		if h := ev.h; h != nil {
			// A delegated grant: once its transfer is in, the acquire
			// takes the lock.
			if fx.park = h.need > 0; !fx.park {
				c.takeArrived(res, h, fx)
			}
			return
		}
		// A shared acquire on a fan rotation's resource: a covering
		// lease may have landed since its cache miss.
		if c.st.fanStanding[res] {
			fx.h = c.hitLocked(res, ev.need, ev.rng)
			fx.park = fx.h == nil
		}
	case cevGiveUp:
		switch h := ev.h; {
		case h == nil:
			// The fan lease never came by the deadline (propagation lost,
			// writer died): stop standing, and go to the server.
			delete(c.st.fanStanding, res)
		case h.need == 0:
			c.takeArrived(res, h, fx) // the transfer beat the give-up
		default:
			// The acquire releases the lock: a part that arrives later
			// finds it gone and leaves no record.
			c.st.drop(h)
		}
	case cevSolicit:
		// Installed: the ack leaves at once — out of the lazy queue with
		// the rest of res's acks, or afresh when it already left the
		// queue (sent, or forwarded to a gathering writer that has not
		// passed it on; duplicate acks are idempotent server-side). Still
		// on its way, or not yet taken by its acquire: the note makes
		// queueAck send it then.
		switch n, h := c.st.notes[k], findByID(c.st.cached[res], ev.id); {
		case slices.Contains(c.st.pendingAcks[res], ev.id):
			fx.send, fx.acks = true, c.st.popAcks(res)
		case h != nil && !h.awaiting:
			fx.send, fx.acks = true, []LockID{ev.id}
		case !n.gone:
			n.solicited = true
			c.st.setNote(k, n)
		}
	case cevTakeAcks:
		fx.acks = c.st.popAcks(res)
	case cevRequeueAcks:
		// No timer re-arm: a connection without a HandoffAck path would
		// otherwise spin the timer forever.
		c.st.pendingAcks[res] = append(c.st.pendingAcks[res], ev.ids...)
	case cevDrainAcks:
		if len(c.st.pendingAcks) > 0 {
			fx.pending, c.st.pendingAcks = c.st.pendingAcks, make(map[ResourceID][]LockID)
		}
		if c.st.ackTimer != nil {
			c.st.ackTimer.Stop()
			c.st.ackTimer = nil
		}
	}
}

// takeArrived hands h, whose transfer is in, to the acquire that waited
// for it, counting it and queueing its ack once. Caller holds c.st.mu.
func (c *LockClient) takeArrived(res ResourceID, h *Handle, fx *clientEffects) {
	if h.awaiting {
		h.awaiting, h.got = false, nil
		c.Stats.HandoffsRecv.Add(1)
		c.queueAck(res, h.id, fx)
	}
	fx.h = h
}

// install puts a new handle into the cache: the one place a handle is
// made, for a grant reply and for a lease. A revocation that raced ahead
// of it makes it born CANCELING, with the revocation's stamp; transfer
// parts that raced ahead of it count toward a delegated grant's transfer
// and are dropped for a lease. Caller holds st.mu.
func (st *clientState) install(h *Handle) *Handle {
	h.mu = &st.mu
	h.released = make(chan struct{})
	k := lockKey{h.res, h.id}
	n := st.notes[k]
	if n.revoked {
		h.state, h.stamp = Canceling, n.stamp
	}
	n.revoked, n.stamp = false, nil
	st.setNote(k, n)
	if got, ok := st.early[k]; ok {
		delete(st.early, k)
		if h.need > 0 {
			h.got, h.need = got, max(h.need-len(got), 0)
		}
	}
	st.cached[h.res] = append(st.cached[h.res], h)
	return h
}

// drop takes h out of the cache and notes it gone. Caller holds st.mu.
func (st *clientState) drop(h *Handle) {
	st.retire(lockKey{h.res, h.id})
	list := st.cached[h.res]
	switch i := slices.Index(list, h); {
	case i < 0:
	case len(list) == 1:
		delete(st.cached, h.res)
	default:
		st.cached[h.res] = slices.Delete(list, i, i+1)
	}
}

// apply carries out what a step decided, outside the client mutex, in
// the order the steps' transitions issue them.
func (c *LockClient) apply(res ResourceID, fx *clientEffects) {
	if ids := fx.acks; fx.send {
		// Off the caller's goroutine: the callers are an RPC handler and
		// an acquire about to use its lock, and neither should sit out
		// the ack's round trip.
		c.Stats.SolicitedAcks.Add(1)
		c.clk.Go(func() { c.sendAcks(c.baseCtx, map[ResourceID][]LockID{res: ids}) })
	}
	if fx.cancel {
		c.startCancel(fx.h)
	}
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

// hitLocked is the cached-hit scan: the first cached handle covering rng
// in a mode covering need that claim accepts, counted as a cache hit.
// Caller holds c.st.mu.
func (c *LockClient) hitLocked(res ResourceID, need Mode, rng extent.Extent) *Handle {
	if !c.policy.CacheLocks {
		return nil
	}
	for _, h := range c.st.cached[res] {
		if h.rng.Contains(rng) && h.mode.Covers(need) && h.claim(need) {
			c.st.hits++
			return h
		}
	}
	return nil
}

// CacheHits returns the number of acquires served from the lock cache.
func (c *LockClient) CacheHits() int64 {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	return c.st.hits
}

func (c *LockClient) acquire(ctx context.Context, res ResourceID, need Mode, rng extent.Extent, set extent.Set) (*Handle, error) {
	need = c.policy.MapMode(need)
	for {
		var fx clientEffects
		if c.do(res, &clientEvent{kind: cevHit, need: need, rng: rng}, &fx); fx.h != nil {
			return fx.h, nil
		}
		if fx.miss {
			if h, err := c.acquireMiss(ctx, res, need, rng, set); h != nil || err != nil {
				return h, err
			}
			continue // the lock the grant named was already leaving
		}
		// Another acquire of res is past its miss and may install a
		// covering grant: wait for it, then try the cache again.
		if err := c.waitIdle(ctx, res); err != nil {
			return nil, err
		}
	}
}

// waitIdle waits until no acquire holds res busy, or ctx fires.
func (c *LockClient) waitIdle(ctx context.Context, res ResourceID) error {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	for c.st.busy[res] {
		if err := ctx.Err(); err != nil {
			return wire.FromContext(err)
		}
		c.st.cond.Wait(ctx, time.Time{})
	}
	return nil
}

// run runs ev and returns the handle it answered with, if any. It is
// never inlined, so the event and its effects live in run's frame
// instead of taking room in the caller's: the callers go on to deep
// calls (lock RPCs, flushes, peer transfers) on goroutines whose stacks
// would otherwise grow and be copied.
//
//go:noinline
func (c *LockClient) run(res ResourceID, ev clientEvent) *Handle {
	var fx clientEffects
	c.do(res, &ev, &fx)
	return fx.h
}

// acquireMiss is acquire after a cache miss, with res marked busy: one
// acquire per resource goes past the cache at a time. It clears the
// mark on return, once any grant it got is installed. It returns no
// handle and no error when the lock it was granted is already leaving.
func (c *LockClient) acquireMiss(ctx context.Context, res ResourceID, need Mode, rng extent.Extent, set extent.Set) (*Handle, error) {
	defer c.clearBusy(res)
	c.Stats.CacheMisses.Add(1)

	// In a fan rotation the next read lease arrives peer-to-peer; wait
	// briefly for it instead of paying a server round trip. The reclaim
	// interval bounds the wait: the server self-heals any lease that
	// was lost in flight.
	if c.policy.Handoff && !need.IsWrite() && len(set) == 0 {
		end := c.clk.Now().Add(c.policy.ReclaimInterval())
		if h, err := c.await(ctx, res, clientEvent{kind: cevAwait, need: need, rng: rng}, end); h != nil || err != nil {
			return h, err
		}
	}

	start := c.clk.Now()
	acks := c.takeAcks(res)
	g, err := c.router(res).Lock(ctx, Request{
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
	h := c.run(res, grantEvent(&g, need))
	if h != nil && g.Delegated {
		// The lock arrives from the previous holder, not from server
		// state: wait until the transfer — every part of it, for a
		// gather — or the server's activation lands; the wait then
		// queues the delegation's ack.
		if h, err = c.await(ctx, res, clientEvent{kind: cevAwait, h: h}, time.Time{}); err != nil {
			c.router(res).Release(c.baseCtx, res, g.LockID)
			return nil, err
		}
	}
	return h, nil
}

// await is the one wait of an acquire for a delegated lock: a delegated
// grant's (ev.h) for its transfer, or a shared acquire's on a fan
// rotation for a covering lease. It parks on c.st.cond while ev's step
// finds the lock not yet arrived, and gives up (cevGiveUp) once ctx or
// the client's lifecycle ends or the deadline (zero: none) passes; a
// standing wait leaves without that step unless its deadline passed.
// It returns the handle the step answered with; nil and no error send a
// shared acquire on to the server.
func (c *LockClient) await(ctx context.Context, res ResourceID, ev clientEvent, deadline time.Time) (*Handle, error) {
	var fx clientEffects
	var err error
	c.st.mu.Lock()
	for c.step(res, &ev, &fx); fx.park; c.step(res, &ev, &fx) {
		if err = ctx.Err(); err != nil {
			err = wire.FromContext(err)
		} else if c.baseCtx.Err() != nil {
			err = wire.ErrShuttingDown
		}
		if err != nil && ev.h == nil {
			break // only a passed deadline ends a fan rotation
		}
		if err != nil || !deadline.IsZero() && !c.clk.Now().Before(deadline) {
			ev.kind = cevGiveUp
		} else {
			c.st.cond.Wait(ctx, deadline)
		}
		fx = clientEffects{}
	}
	c.st.mu.Unlock()
	if fx.send || fx.cancel {
		c.apply(res, &fx)
	}
	if fx.h != nil {
		return fx.h, nil
	}
	return nil, err
}

// clearBusy clears res's busy mark and wakes the acquires waiting on it.
func (c *LockClient) clearBusy(res ResourceID) {
	c.st.mu.Lock()
	delete(c.st.busy, res)
	c.st.cond.Broadcast()
	c.st.mu.Unlock()
}

// grantEvent is the step that installs g for an acquire needing need.
func grantEvent(g *Grant, need Mode) clientEvent {
	return clientEvent{kind: cevGrant, need: need, mode: g.Mode, state: g.State, delegated: g.Delegated,
		id: g.LockID, sn: g.SN, rng: g.Range, parts: g.GatherParts, stamp: g.HandBack, ids: g.Absorbed}
}

func findByID(list []*Handle, id LockID) *Handle {
	if i := slices.IndexFunc(list, func(h *Handle) bool { return h.id == id }); i >= 0 {
		return list[i]
	}
	return nil
}

// Unlock returns a handle after use. If the lock is CANCELING (or the
// policy does not cache locks) and this was the last user, the cancel
// path starts in the background: downgrade, flush, release.
func (c *LockClient) Unlock(h *Handle) {
	c.do(h.res, &clientEvent{kind: cevUnlock, h: h}, &clientEffects{})
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
func (c *LockClient) OnRevokeStamped(res ResourceID, id LockID, stamp *Stamp) {
	c.Stats.Revocations.Add(1)
	c.run(res, clientEvent{kind: cevRevoke, id: id, stamp: stamp})
}

// startCancel starts h's cancel path, claimed by a step. One whose first
// step is its flush (unstamped, no downgrade RPC ahead of the flush)
// starts from its data server's flush window, if the flusher has them. A
// stamped one starts at once: its transfer may send a peer RPC first.
func (c *LockClient) startCancel(h *Handle) {
	if c.windows != nil {
		c.st.mu.Lock()
		first := h.stamp == nil && !(c.policy.Conversion && Downgrade(h.mode, h.wrote) == NBW)
		c.st.mu.Unlock()
		if first {
			h.win.Task = (*cancelTask)(h)
			c.windows.Window(h.res).Start(&h.win)
			return
		}
	}
	c.clk.GoTask((*cancelTask)(h))
}

// flush is h's cancel flush; a nonzero held is its window token's request time.
func (c *LockClient) flush(ctx context.Context, h *Handle, held time.Time) {
	if held.IsZero() {
		c.flusher.FlushForCancel(ctx, h.res, h.rng, h.sn)
	} else {
		c.windows.FlushHeld(ctx, h.res, h.rng, h.sn, held)
	}
}

// cancel runs the lock cancel path of §III-D2: automatic downgrade to
// the least restrictive mode (re-enabling early grant for waiters), data
// flushing tagged with the lock's SN, then release. Exactly one
// goroutine runs it per handle: startCancel started it.
func (c *LockClient) cancel(h *Handle) {
	start, held := c.clk.Now(), h.win.Since
	if !held.IsZero() {
		start = held // the cancel's time includes its wait for the token
	}
	c.Stats.Cancels.Add(1)
	ctx, res := c.baseCtx, h.res
	conn := c.router(res)
	c.st.mu.Lock()
	mode, wrote, stamp, absorbed := h.mode, h.wrote, h.stamp, h.absorbed
	c.st.mu.Unlock()

	if stamp != nil {
		if !held.IsZero() {
			// The stamp came while the cancel waited in the window: the
			// transfer takes tokens of its own.
			c.windows.Window(res).Put()
		}
		c.transfer(ctx, conn, h, stamp, wrote)
	} else {
		flushed := false
		if d := Downgrade(mode, wrote); c.policy.Conversion && d != ModeNone {
			if d == PR {
				// A PW held only by readers: flush first so readers
				// granted after the downgrade observe current data.
				c.flush(ctx, h, held)
				flushed = true
			}
			if err := conn.Downgrade(ctx, res, h.id, d); err == nil {
				c.run(res, clientEvent{kind: cevDowngraded, h: h, mode: d})
			}
		}
		if !flushed {
			c.flush(ctx, h, held)
		}
		// Once the release is in flight the lock must no longer be
		// exported for server recovery: its data flushing is complete
		// (flush strictly precedes release), so a recovering server that
		// never hears about it loses nothing — while restoring it after
		// the release landed would leave a zombie lock no one will ever
		// release.
		c.run(res, clientEvent{kind: cevReleasing, h: h})
		conn.Release(ctx, res, h.id)
	}
	c.run(res, clientEvent{kind: cevCancelDone, h: h})
	sim.Close(c.clk, h.released)
	for _, old := range absorbed {
		sim.Close(c.clk, old.released)
	}
	c.Stats.CancelNs.Add(c.clk.Since(start).Nanoseconds())
}

// CachedLocks returns the number of cached handles for a resource.
func (c *LockClient) CachedLocks(res ResourceID) int {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	return len(c.st.cached[res])
}

// Close cancels the client's lifecycle context, aborting background
// cancel goroutines mid-RPC and the acquires waiting for a delegated
// lock. Call after ReleaseAll on a graceful path; alone it is a hard
// stop.
func (c *LockClient) Close() {
	c.cancelFn()
	c.st.mu.Lock()
	c.st.cond.Broadcast()
	c.st.mu.Unlock()
}

// ReleaseAll cancels every idle cached lock and waits for the cancels to
// finish — the client's shutdown barrier, bounded by ctx. Handles with
// active holds are marked CANCELING and will cancel at their final
// Unlock; ReleaseAll does not wait for those, since that Unlock may come
// only after the client closed (its cancel then fails on the closed
// connections, and the server releases the lock as a dead holder's). A
// lock it cancels acknowledges its own delegation with its release, so
// its queued ack is dropped; the acks still queued are sent standalone
// before the cancels start.
func (c *LockClient) ReleaseAll(ctx context.Context) error {
	var started, cached []*Handle
	c.st.mu.Lock()
	for _, list := range c.st.cached {
		cached = append(cached, list...)
	}
	// The cache map iterates in random order; walk it in ascending lock
	// order, which fixes the cancel spawn and wait order for
	// deterministic virtual runs.
	slices.SortFunc(cached, func(a, b *Handle) int { return cmp.Or(cmp.Compare(a.res, b.res), cmp.Compare(a.id, b.id)) })
	for _, h := range cached {
		var fx clientEffects
		if c.step(h.res, &clientEvent{kind: cevShutdown, h: h}, &fx); fx.cancel {
			started = append(started, h)
		}
	}
	wait := slices.DeleteFunc(cached, func(h *Handle) bool { return h.holds > 0 })
	c.st.mu.Unlock()
	// The acks left queued are of delegations no longer cached and of
	// handles a caller still holds: they go out before the cancels.
	c.FlushHandoffAcks(ctx)
	for _, h := range started {
		c.startCancel(h)
	}
	for _, h := range wait {
		if err := c.waitReleased(ctx, h); err != nil {
			return err
		}
	}
	return nil
}
