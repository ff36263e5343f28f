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
// still GRANTED. A revocation's CANCELING flip and a hit's hold are both
// steps under the client mutex: either the revocation sees the hold (and
// the last Unlock starts the cancel) or the hit misses.
func (h *Handle) claim(need Mode) bool {
	if h.state != Granted {
		return false
	}
	h.holds++
	h.wrote = h.wrote || need.IsWrite()
	return true
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
	// (peer transfer or server-sent activation).
	HandoffsSent atomic.Int64
	HandoffsRecv atomic.Int64
	// LeasesSent counts propagation-tree subtrees this client forwarded
	// to peers; LeasesRecv counts read leases installed from a
	// handback transfer or peer propagation (DESIGN.md §14).
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
	// its cache miss (acquireMiss); another acquire of it waits on idle
	// until the mark clears, then tries the cache again.
	busy map[ResourceID]bool
	idle *sim.Cond
	// notes remembers locks the client does not cache (lockNote), keyed
	// by (resource, lock ID): lock IDs are unique only within one
	// server, and a client talks to many servers.
	notes map[lockKey]lockNote
	// Handoff reception state (clienthandoff.go): waiters blocked on a
	// transfer, and delegation acks queued for the server.
	pendingHandoffs map[lockKey]*transferWaiter
	pendingAcks     map[ResourceID][]LockID
	ackTimer        *sim.ClockTimer
	// Reader fan-out state (clientfan.go): resources in a fan rotation
	// — a write-mode stamped revocation displaced this client's read
	// lease, so the next lease arrives peer-to-peer — and the channel
	// shared-mode acquires park on until that arrival, instead of going
	// to the server.
	fanStanding map[ResourceID]bool
	fanWaiters  map[ResourceID]chan struct{}
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
			cached:          make(map[ResourceID][]*Handle),
			busy:            make(map[ResourceID]bool),
			notes:           make(map[lockKey]lockNote),
			pendingHandoffs: make(map[lockKey]*transferWaiter),
			pendingAcks:     make(map[ResourceID][]LockID),
			fanStanding:     make(map[ResourceID]bool),
			fanWaiters:      make(map[ResourceID]chan struct{}),
		},
	}
	c.windows, _ = flusher.(WindowedFlusher)
	c.st.idle = sim.NewCond(c.clk, &c.st.mu)
	return c
}

// ID returns the client identifier.
func (c *LockClient) ID() ClientID { return c.id }

// SetClock points the client at a (virtual) clock. Call before first
// use; the zero clock is the wall clock.
func (c *LockClient) SetClock(clk sim.Clock) {
	c.clk = clk
	c.st.idle = sim.NewCond(clk, &c.st.mu)
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
// change to a handle's holds, state, mode, stamp or release mark, and to
// the client's cache, notes, transfer waits, ack queue and fan rotation, is
// one of these, applied by step.
type cevKind uint8

const (
	cevHit          cevKind = iota // an acquire claims a cached lock covering its range
	cevGrant                       // a grant reply's lock joins the cache
	cevRevoke                      // a revocation, plain or stamped, arrives
	cevUnlock                      // a user returns its handle
	cevShutdown                    // the shutdown barrier marks a cached lock CANCELING
	cevDowngraded                  // the cancel path converted the lock
	cevReleasing                   // the cancel path is about to release or transfer the lock
	cevCancelDone                  // the lock left the client
	cevWait                        // a delegated acquire waits for its transfer
	cevWaitAbort                   // ... and gives up
	cevPart                        // a transfer part or a server-sent activation arrives
	cevLease                       // a handback or propagated read lease arrives
	cevSolicit                     // the server asks for a delegation's ack now
	cevTakeAcks                    // queued acks leave on a lock request or a transfer
	cevRequeueAcks                 // acks come back from a failed send, or arrive piggybacked
	cevDrainAcks                   // the ack timer or the shutdown barrier empties the queue
	cevStand                       // a shared acquire parks on a fan rotation's next lease
	cevStandExpired                // ... which never came
)

// clientEvent is one transition and its operands. A grant and a wait
// describe the arriving lock in id, sn, rng and mode, a lease in stamp.
type clientEvent struct {
	kind      cevKind
	need      Mode          // hit, grant, stand: the mode the acquire needs
	mode      Mode          // grant, wait: the lock's; downgraded: the new one
	state     State         // grant
	delegated bool          // grant
	final     bool          // part: a server-sent activation
	id        LockID        // the lock
	member    LockID        // part: the cohort member it retires
	sn        extent.SN     // grant, wait
	rng       extent.Extent // hit, stand: the range needed; grant, wait: the lock's
	parts     int           // wait: the transfer parts to collect
	h         *Handle       // unlock, shutdown, downgraded, releasing, cancelDone
	stamp     *Stamp        // revoke: the delegation; grant: the hand-back; lease: the cohort, this client's lease first
	ids       []LockID      // grant: the locks absorbed; requeueAcks: the acks
}

// clientEffects is what one step decided: its answer to the caller,
// and what apply must do once the client mutex drops, in the order the
// flags are listed. The answers a flag acts on are named beside it.
type clientEffects struct {
	h       *Handle                 // hit, grant, stand: the handle claimed
	miss    bool                    // hit: missed, and marked the resource busy
	tw      *transferWaiter         // wait: the transfer to park on
	ch      chan struct{}           // stand: the next lease's arrival to park on
	pending map[ResourceID][]LockID // drainAcks
	acks    []LockID                // takeAcks: the acks taken
	ok      bool                    // waitAbort: the wait was withdrawn
	orphan  LockID                  // part: an activated lock nobody here asked for

	wake     bool // close ch: the fan waiters parked on it wake
	complete bool // complete tw: the transfer it waits for is in
	send     bool // send acks at once: the server solicited them
	cancel   bool // start h's cancel path
	release  bool // release orphan through the server
}

// do runs one transition: step under c.st.mu, then the effects it
// decided, once c.st.mu has dropped.
func (c *LockClient) do(res ResourceID, ev *clientEvent, fx *clientEffects) {
	c.st.mu.Lock()
	c.step(res, ev, fx)
	c.st.mu.Unlock()
	if fx.wake || fx.complete || fx.send || fx.cancel || fx.release {
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
		if ev.delegated {
			c.queueAck(res, ev.id, fx)
		}
		h := c.st.install(&Handle{c: c, res: res, id: ev.id, sn: ev.sn, rng: ev.rng,
			holds: 1, state: ev.state, mode: ev.mode, wrote: ev.need.IsWrite()})
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
		h := ev.h
		c.st.retire(lockKey{res, h.id})
		list := c.st.cached[res]
		switch i := slices.Index(list, h); {
		case i < 0:
		case len(list) == 1:
			delete(c.st.cached, res)
		default:
			c.st.cached[res] = slices.Delete(list, i, i+1)
		}
	case cevWait:
		// Parts may already have landed (they raced ahead of the grant
		// reply); otherwise park on what the rest of them complete.
		tw := c.st.pendingHandoffs[k]
		if tw == nil {
			tw = transferWaiters.Get().(*transferWaiter)
			c.st.pendingHandoffs[k] = tw
		}
		tw.need, tw.mode, tw.rng, tw.sn = max(ev.parts, 1), ev.mode, ev.rng, ev.sn
		if tw.done() {
			delete(c.st.pendingHandoffs, k)
			tw.recycle()
			return
		}
		fx.tw = tw
	case cevWaitAbort:
		// The acquire releases the lock: a part that arrives later finds
		// it gone instead of opening a record nobody waits on.
		if tw := c.st.pendingHandoffs[k]; tw != nil && tw.need > 0 {
			delete(c.st.pendingHandoffs, k)
			c.st.retire(k)
			fx.ok = true
		}
	case cevPart:
		tw := c.st.pendingHandoffs[k]
		if tw == nil {
			if c.st.notes[k].gone || findByID(c.st.cached[res], ev.id) != nil {
				return
			}
			if ev.final && !c.st.busy[res] {
				// The server activated a lock this client neither caches,
				// waits for, nor has a request in flight for: a lease it
				// force-resolved that never arrived here. Nothing will
				// ever use it, and the next writer's gather would wait a
				// reclaim period for its part: release it at once, and
				// retire it so a late copy of the lease is dropped.
				c.st.retire(k)
				fx.orphan, fx.release = ev.id, true
				return
			}
			tw = transferWaiters.Get().(*transferWaiter)
			c.st.pendingHandoffs[k] = tw
		}
		if tw.part(ev.member, ev.final) {
			delete(c.st.pendingHandoffs, k)
			fx.tw, fx.complete = tw, true
		}
	case cevLease:
		// A lease already installed or gone is a duplicate. Otherwise a
		// zero-hold handle enters the cache — canceled at once if a
		// revocation raced ahead (its transfer obligation, if stamped,
		// still runs) — its ack is queued and parked fan waiters wake.
		// No acquire ever waits on a lease: the server pre-arms it in a
		// gather writer's grant, never in a reader's.
		if c.st.notes[k].gone || findByID(c.st.cached[res], ev.id) != nil {
			return
		}
		mine := ev.stamp.Leases[0]
		h := c.st.install(&Handle{c: c, res: res, id: mine.LockID, sn: mine.SN, rng: ev.stamp.Range, state: Granted, mode: ev.stamp.Mode})
		fx.h, fx.cancel = h, h.claimCancel()
		if fx.ch, fx.wake = c.st.fanWaiters[res]; fx.wake {
			delete(c.st.fanWaiters, res)
		}
		c.Stats.HandoffsRecv.Add(1)
		c.Stats.LeasesRecv.Add(1)
		c.queueAck(res, ev.id, fx)
	case cevSolicit:
		// Installed: the ack leaves at once — out of the lazy queue with
		// the rest of res's acks, or afresh when it already left the
		// queue (sent, or forwarded to a gathering writer that has not
		// passed it on; duplicate acks are idempotent server-side). Still
		// on its way: the note makes queueAck send it on install.
		switch n := c.st.notes[k]; {
		case slices.Contains(c.st.pendingAcks[res], ev.id):
			fx.send, fx.acks = true, c.st.popAcks(res)
		case findByID(c.st.cached[res], ev.id) != nil:
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
	case cevStand:
		// The lease may have landed between the caller's cache miss and
		// here; re-probe under the same mutex a wake is sent under, so a
		// wake cannot slip between the miss and the park.
		if !c.st.fanStanding[res] {
			return
		}
		if fx.h = c.hitLocked(res, ev.need, ev.rng); fx.h == nil {
			if fx.ch = c.st.fanWaiters[res]; fx.ch == nil {
				fx.ch = make(chan struct{})
				c.st.fanWaiters[res] = fx.ch
			}
		}
	case cevStandExpired:
		delete(c.st.fanStanding, res)
	}
}

// install puts a new handle into the cache: the one place a handle is
// made, for a grant reply and for a lease. A revocation that raced ahead
// of it makes it born CANCELING, with the revocation's stamp; transfer
// parts that raced ahead of a lease are dropped. Caller holds st.mu.
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
	if tw := st.pendingHandoffs[k]; tw != nil && tw.need == 0 {
		delete(st.pendingHandoffs, k)
		tw.recycle()
	}
	st.cached[h.res] = append(st.cached[h.res], h)
	return h
}

// apply carries out what a step decided, outside the client mutex, in
// the order the steps' transitions issue them.
func (c *LockClient) apply(res ResourceID, fx *clientEffects) {
	if fx.wake {
		sim.Close(c.clk, fx.ch)
	}
	if fx.complete {
		fx.tw.complete(c.clk)
	}
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
	if id := fx.orphan; fx.release {
		c.clk.Go(func() { c.router(res).Release(c.baseCtx, res, id) })
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
			return c.acquireMiss(ctx, res, need, rng, set)
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
		c.st.idle.Wait(ctx, time.Time{})
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
// mark on return, once any grant it got is installed.
func (c *LockClient) acquireMiss(ctx context.Context, res ResourceID, need Mode, rng extent.Extent, set extent.Set) (*Handle, error) {
	defer c.clearBusy(res)
	c.Stats.CacheMisses.Add(1)

	// In a fan rotation the next read lease arrives peer-to-peer; park
	// briefly on its arrival instead of paying a server round trip. A
	// timeout (the reclaim interval) falls back to the server, which
	// self-heals any lease that was lost in flight.
	if c.policy.Handoff && !need.IsWrite() && len(set) == 0 {
		if h := c.waitStanding(ctx, res, need, rng); h != nil {
			return h, nil
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
	if g.Delegated {
		// The lock arrives from the previous holder, not from server
		// state: block until the transfer — every part of it, for a
		// gather — or a server-sent activation lands; the grant step
		// then queues the delegation's ack.
		if err := c.waitTransfer(ctx, res, g); err != nil {
			c.router(res).Release(c.baseCtx, res, g.LockID)
			return nil, err
		}
		c.Stats.HandoffsRecv.Add(1)
	}
	return c.run(res, grantEvent(&g, need)), nil
}

// clearBusy clears res's busy mark and wakes the acquires waiting on it.
func (c *LockClient) clearBusy(res ResourceID) {
	c.st.mu.Lock()
	delete(c.st.busy, res)
	c.st.idle.Broadcast()
	c.st.mu.Unlock()
}

// grantEvent is the step that installs g for an acquire needing need.
func grantEvent(g *Grant, need Mode) clientEvent {
	return clientEvent{kind: cevGrant, need: need, mode: g.Mode, state: g.State, delegated: g.Delegated,
		id: g.LockID, sn: g.SN, rng: g.Range, stamp: g.HandBack, ids: g.Absorbed}
}

func findByID(list []*Handle, id LockID) *Handle {
	for _, h := range list {
		if h.id == id {
			return h
		}
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
// cancel goroutines mid-RPC. Call after ReleaseAll on a graceful path;
// alone it is a hard stop.
func (c *LockClient) Close() { c.cancelFn() }

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
