package dlm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// ResourceID identifies a lock resource. In ccPFS each file stripe has a
// dedicated lock resource with the same identifier (§IV).
type ResourceID uint64

// ClientID identifies a lock client.
type ClientID uint32

// LockID identifies a granted lock within one server.
type LockID uint64

// Request asks for a byte-range lock on a resource.
type Request struct {
	Resource ResourceID
	Client   ClientID
	Mode     Mode
	Range    extent.Extent
	// Extents carries the exact non-contiguous ranges for the
	// DLM-datatype baseline. When set, Range must be its bounds and no
	// expansion is performed.
	Extents extent.Set
	// HandoffAcks piggybacks client-to-client handoff confirmations on a
	// lock request (DESIGN.md §13): each entry is a delegated lock on
	// the same resource whose transfer the requesting client received.
	// Piggybacked acks cost no extra server RPC.
	HandoffAcks []LockID
}

// Grant is the server's reply: the lock as granted, after range
// expansion and possible mode upgrading, tagged with its sequence number
// and state (CANCELING when granted with early revocation).
type Grant struct {
	LockID LockID
	Mode   Mode
	Range  extent.Extent
	SN     extent.SN
	State  State
	// Absorbed lists same-client locks this grant replaced via lock
	// upgrading; the client merges its cached locks accordingly.
	Absorbed []LockID
	// Delegated marks a grant issued through a handoff stamp: the lock
	// arrives from the previous holder over a client-to-client transfer
	// rather than being usable immediately, and the new owner must ack
	// it back to the server (DESIGN.md §13).
	Delegated bool
	// GatherParts is the number of client-to-client transfers a
	// delegated write grant collects before activating: one per member
	// of the reader cohort it displaced (DESIGN.md §14). Zero for
	// single-transfer delegations.
	GatherParts int
	// HandBack pre-arms the next read fan-out: the server has already
	// installed delegated leases for the displaced reader cohort; the
	// grantee owes the cohort this stamp's transfer when it finishes,
	// without another server round trip (DESIGN.md §14).
	HandBack *Stamp
}

// Revocation identifies a callback the server wants delivered to a lock
// holder.
type Revocation struct {
	Client   ClientID
	Resource ResourceID
	Lock     LockID
	// Handoff, when non-nil, stamps the revocation with a delegation
	// grant: instead of flushing and releasing back to the server, the
	// holder transfers the lock directly to the stamped next owner
	// (DESIGN.md §13).
	Handoff *Stamp
}

// Notifier is the engine's one path to lock holders: every server→client
// callback goes through it. Calls are made from their own goroutines and
// may block; ctx is the engine's lifecycle context, canceled at shutdown
// so stragglers abort.
//
//   - RevokeBatch delivers every revocation pending for one client in
//     one callback (DESIGN.md §9). The implementation invokes
//     Server.RevokeAck for each entry when the reply returns, and acks
//     and releases entries whose holder has vanished. revs is the
//     revoker's, reused once the call returns.
//   - Handoff delivers the server's transfer of delegated lock t.Lock to
//     its owner (DESIGN.md §13, §14): the part of predecessor t.Member,
//     which released instead of transferring, or the activation of a
//     delegation the server resolved, which carries the lock's lease as
//     t.Cohort.
//   - SolicitAck asks client, the owner of delegated lock id, to confirm
//     it now, because a waiter is blocked on nothing else. It is best
//     effort: the owner's lazy ack and the reclaimer stand behind it.
type Notifier interface {
	RevokeBatch(ctx context.Context, client ClientID, revs []Revocation)
	Handoff(ctx context.Context, client ClientID, res ResourceID, t Transfer)
	SolicitAck(ctx context.Context, client ClientID, res ResourceID, id LockID)
}

// NotifierFunc adapts a per-revocation function to Notifier, for engines
// with Policy.Handoff off: such an engine never stamps a revocation, so
// nothing is delegated to activate or confirm.
type NotifierFunc func(context.Context, Revocation)

// RevokeBatch implements Notifier: f runs once per revocation, in order.
func (f NotifierFunc) RevokeBatch(ctx context.Context, _ ClientID, revs []Revocation) {
	for _, rv := range revs {
		f(ctx, rv)
	}
}

// Handoff implements Notifier; it does nothing.
func (NotifierFunc) Handoff(context.Context, ClientID, ResourceID, Transfer) {}

// SolicitAck implements Notifier; it does nothing.
func (NotifierFunc) SolicitAck(context.Context, ClientID, ResourceID, LockID) {}

// Server is the lock-server engine. One engine instance serves all lock
// resources placed on a data server; behaviour is selected by Policy.
//
// Concurrency: one RWMutex guards the resource map, held only for
// lookup/insert; each resource keeps its own mutex for the grant state
// machine, and the lock-ID allocator and Stats are atomics. See
// DESIGN.md §6.
type Server struct {
	policy   Policy
	notifier Notifier

	// baseCtx is the engine's lifecycle; revocation callbacks run under
	// it and Shutdown cancels it so in-flight notifier RPCs abort.
	baseCtx  context.Context
	cancelFn context.CancelFunc
	draining atomic.Bool

	// revoker coalesces revocations per client and delivers to every
	// client at once (DESIGN.md §9).
	revoker revoker

	// reclaim tracks outstanding delegations for timeout recovery
	// (handoff.go), on Policy.ReclaimInterval.
	reclaim handoffReclaimer

	// resMu guards the resource map (lookup/insert/removal) and snFloor,
	// the SN a resource the engine creates starts its sequencer at: 0
	// until a Restore raises it (recovery.go).
	resMu     sync.RWMutex
	resources map[ResourceID]*resource
	snFloor   extent.SN
	nextLock  atomic.Uint64

	// slots is the partition-mastership view (nil = unpartitioned,
	// masters everything) and leaseExpiry the wall-clock bound on it;
	// see partition.go. slotsMu serializes the writers of slots.
	slots       atomic.Pointer[slotView]
	slotsMu     sync.Mutex
	leaseExpiry atomic.Int64

	// Stats accumulates protocol counters and wait-time attribution used
	// by the Fig. 17 breakdown.
	Stats Stats

	// tracer, when attached, records protocol events for debugging.
	tracer *Tracer

	// clk is the engine's time source: waiter enqueue stamps, wait-time
	// histograms, handoff deadlines, and the reclaimer loop all run on
	// it. The zero value is the wall clock; virtual runs inject a VClock
	// via SetClock before serving.
	clk sim.Clock
}

// NewServer returns an engine with the given policy. The notifier may be
// nil until SetNotifier is called (before the first conflicting grant).
func NewServer(policy Policy, notifier Notifier) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		policy:    policy,
		notifier:  notifier,
		baseCtx:   ctx,
		cancelFn:  cancel,
		resources: make(map[ResourceID]*resource),
	}
	s.revoker.s, s.revoker.clients = s, make(map[ClientID]*revClient)
	return s
}

// SetNotifier installs the revocation callback sink.
func (s *Server) SetNotifier(n Notifier) { s.notifier = n }

// SetClock points the engine at a (virtual) clock. Call before serving;
// the zero clock is the wall clock.
func (s *Server) SetClock(c sim.Clock) { s.clk = c }

type lock struct {
	id         LockID
	client     ClientID
	mode       Mode
	rng        extent.Extent
	set        extent.Set
	state      State
	sn         extent.SN
	revokeSent bool
	// Delegation state (DESIGN.md §13, §14). A handed-off lock was
	// stamped for client-to-client transfer: its holder will hand it to
	// succ instead of releasing, so it behaves as CANCELING until the
	// successor's ack removes it. A delegated lock was granted through a
	// stamp and stays unconfirmed until its owner acks; preds lists its
	// predecessors — a handoff's one holder, a gather's whole cohort, or
	// the gathering writer for its handback's lead lease — backed by one
	// when there is just one, so a handoff allocates no list. bcast lists
	// the handback leases a gathering writer owes a broadcast transfer to
	// (succ points at the lead, bcast[0]).
	handedOff bool
	delegated bool
	succ      *lock
	preds     []*lock
	one       [1]*lock
	bcast     []*lock
	// solicited records that the owner of this delegated lock was asked
	// to confirm it at once (solicitAck); one solicitation per delegation.
	solicited bool
	tblIdx    int // position in the lockTable slice (swap-remove)
}

// lockResult is what a waiter receives: a grant, or the typed error the
// engine failed the wait with (shutdown).
type lockResult struct {
	g   Grant
	err error
}

// waiter is one blocked Lock call. Waiters (with their reply channels)
// are recycled: Lock puts its waiter back once the reply has been
// received, or once it withdrew the waiter under res.mu before any reply
// was decided. Either way the waiter is out of the queue and its index
// by then — a resolution marks it done and retires it from the index
// under res.mu, and the same hold compacts the queue — and the one
// sender has finished with it: every sender loads w.ch before sending
// and never reads w afterwards.
type waiter struct {
	req         Request
	ch          chan lockResult
	enqAt       time.Time
	hadConflict bool
	allCancelAt time.Time
	done        bool
	key         uint64 // unique per resource, keys the queue interval index
}

// waiters recycles waiter records; see waiter.
var waiters = sync.Pool{New: func() any { return &waiter{ch: make(chan lockResult, 1)} }}

// poisonResource is a recycled waiter's resource in -race builds, so a
// stale reader sees a resource no request names.
const poisonResource = ^ResourceID(0)

// recycle clears w, keeping its (empty) channel, and pools it. A -race
// build poisons the request so a stale holder fails loudly.
func (w *waiter) recycle() {
	*w = waiter{ch: w.ch}
	if wire.RaceEnabled {
		w.req.Resource = poisonResource
	}
	waiters.Put(w)
}

type resource struct {
	mu      sync.Mutex
	id      ResourceID
	nextSN  extent.SN
	granted lockTable
	queue   []*waiter
	// wtree indexes live (not done) queue entries by request range for
	// queueConflict and expansion probes; the queue slice keeps FIFO
	// order for the fairness scan.
	wtree  extent.ITree[*waiter]
	wseq   uint64 // allocator for waiter keys
	grants int    // total grants ever, drives the DLM-Lustre threshold
	// Scratch reused by every scan under mu: the conflicts of the
	// waiter being tried, and the waiters one pass has left blocked.
	confs   []*lock
	blocked blockedSet
}

// retire marks a waiter done and drops it from the queue index. Callers
// hold res.mu; the queue slice itself is compacted by scan.
func (res *resource) retire(w *waiter) {
	w.done = true
	res.wtree.Delete(w.req.Range.Start, w.key)
}

// resource returns id's resource, creating it if needed. A resource is
// only ever removed when its whole slot is exported or purged
// (partition.go), so the pointer stays valid without the map lock —
// holders racing an export at worst mutate an orphaned table whose
// contents have already been copied out, which the export callers'
// handler gate prevents from mattering (see FreezeExportSlot).
func (s *Server) resource(id ResourceID) *resource {
	if r := s.lookup(id); r != nil {
		return r
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	r := s.resources[id]
	if r == nil {
		r = &resource{id: id, nextSN: s.snFloor}
		s.resources[id] = r
	}
	return r
}

// lookup returns id's resource without creating it. The read-only and
// teardown paths (release, ack, downgrade, mSN) use it so a straggler
// arriving after a slot was exported cannot resurrect an empty
// resource the engine no longer masters.
func (s *Server) lookup(id ResourceID) *resource {
	s.resMu.RLock()
	defer s.resMu.RUnlock()
	return s.resources[id]
}

func (s *Server) newLockID() LockID {
	return LockID(s.nextLock.Add(1))
}

// Lock requests a lock and blocks until it is granted, ctx fires, or the
// engine shuts down. A canceled wait withdraws the queued request (no
// zombie queue entry); if the grant raced the cancellation, the lock is
// released server-side so nothing stays held on behalf of a caller that
// already gave up.
func (s *Server) Lock(ctx context.Context, req Request) (Grant, error) {
	if !req.Mode.Valid() {
		return Grant{}, wire.Errorf(wire.CodeInvalid, "dlm: invalid mode %v", req.Mode)
	}
	if s.policy.MapMode(req.Mode) != req.Mode {
		return Grant{}, wire.Errorf(wire.CodeInvalid, "dlm: mode %v not served by policy %s", req.Mode, s.policy.Name)
	}
	if req.Range.Empty() {
		return Grant{}, wire.Errorf(wire.CodeInvalid, "dlm: empty lock range %v", req.Range)
	}
	if len(req.Extents) > 0 {
		if b, ok := req.Extents.Bounds(); !ok || !req.Range.Contains(b) {
			return Grant{}, wire.Errorf(wire.CodeInvalid, "dlm: extents %v exceed range %v", req.Extents, req.Range)
		}
	}
	if s.draining.Load() {
		return Grant{}, wire.ErrShuttingDown
	}
	if err := s.CheckMaster(req.Resource); err != nil {
		return Grant{}, err
	}
	s.Stats.LockOps.Add(1)
	s.handoffAck(req.Resource, req.HandoffAcks, false)
	res := s.resource(req.Resource)
	w := waiters.Get().(*waiter)
	w.req, w.enqAt = req, s.clk.Now()
	s.tracer.record(Event{Kind: EvRequest, Resource: req.Resource, Client: req.Client, Mode: req.Mode, Range: req.Range})
	if err := s.do(res, &event{kind: evEnqueue, w: w}); err != nil {
		w.recycle()
		return Grant{}, err
	}

	// Every resolution path (grant, shutdown, freeze redirect) sends the
	// reply with sim.Send.
	if r, _, err := sim.Recv(ctx, s.clk, w.ch, nil, time.Time{}); err == nil {
		w.recycle()
		return r.g, r.err
	}
	// Withdraw the waiter. The grant may have raced the cancellation:
	// grant() marks done and buffers the result before the withdrawal
	// takes res.mu, in which case the lock exists server-side and must be
	// released, or it stays held forever on behalf of a caller that
	// already left. Otherwise no reply was decided, and none will be.
	if s.do(res, &event{kind: evWithdraw, w: w}) == errGrantRaced {
		if r := <-w.ch; r.err == nil {
			s.Release(req.Resource, r.g.LockID)
		}
	}
	w.recycle()
	return Grant{}, wire.FromContext(ctx.Err())
}

// Shutdown drains the engine: new and queued Lock waits fail with
// wire.ErrShuttingDown, and the lifecycle context is canceled so
// in-flight revocation callbacks abort. Granted locks stay registered —
// clients release them through their own shutdown path.
func (s *Server) Shutdown() {
	if s.draining.Swap(true) {
		return
	}
	for _, res := range s.allResources() {
		res.mu.Lock()
		s.failWaiters(res, wire.ErrShuttingDown)
		res.mu.Unlock()
	}
	s.cancelFn()
}

// allResources returns every resource in the map, in ascending id
// order.
func (s *Server) allResources() []*resource {
	s.resMu.RLock()
	out := make([]*resource, 0, len(s.resources))
	for _, r := range s.resources {
		out = append(out, r)
	}
	s.resMu.RUnlock()
	sortByID(out)
	return out
}

// sortByID puts resources in ascending id order: a walk over them whose
// effects are timing-visible must not follow Go's map order.
func sortByID(rs []*resource) {
	slices.SortFunc(rs, func(a, b *resource) int { return cmp.Compare(a.id, b.id) })
}

// failWaiters fails every live queue entry with err. Callers hold
// res.mu.
func (s *Server) failWaiters(res *resource, err error) {
	for _, w := range res.queue {
		if !w.done {
			res.retire(w)
			sim.Send(s.clk, w.ch, lockResult{err: err})
		}
	}
	res.queue = res.queue[:0]
}

// RevokeAck records that a client acknowledged a revocation: the lock
// enters CANCELING on the server, which is the transition that enables
// early grant. Unknown locks (already released or absorbed) are ignored.
func (s *Server) RevokeAck(resID ResourceID, id LockID) {
	res := s.lookup(resID)
	if res == nil {
		return
	}
	s.tracer.record(Event{Kind: EvRevokeAck, Resource: resID, Lock: id})
	s.do(res, &event{kind: evRevokeAck, id: id})
}

// Release removes a fully canceled lock. The client must have flushed
// all dirty data written under it before releasing.
func (s *Server) Release(resID ResourceID, id LockID) {
	res := s.lookup(resID)
	if res == nil {
		return
	}
	s.Stats.LockOps.Add(1)
	s.tracer.record(Event{Kind: EvRelease, Resource: resID, Lock: id})
	s.do(res, &event{kind: evRelease, id: id})
}

// Downgrade converts a granted lock to a less restrictive mode (§III-D2),
// enabling early grant for requests that were blocked by its blocking
// feature. Invalid transitions are rejected.
func (s *Server) Downgrade(resID ResourceID, id LockID, newMode Mode) error {
	res := s.lookup(resID)
	if res == nil {
		return fmt.Errorf("dlm: downgrade of unknown lock %d", id)
	}
	s.Stats.LockOps.Add(1)
	return s.do(res, &event{kind: evDowngrade, id: id, mode: newMode})
}

// evKind names one grant-state transition of a resource. The set is
// closed: outside slot migration and recovery, every change to a
// resource's granted set or queue is one of these, applied by step.
type evKind uint8

const (
	evEnqueue   evKind = iota // a Lock request joins the queue
	evWithdraw                // a canceled Lock request leaves it
	evRelease                 // a lock is released
	evRevokeAck               // a revocation is acknowledged: the lock is CANCELING
	evDowngrade               // a lock converts to a weaker mode (§III-D2)
	evDelegAck                // a delegation's new owner confirms the transfer
	evReclaim                 // the reclaimer resolves an expired delegation
)

// event is one transition and its operands.
type event struct {
	kind evKind
	w    *waiter          // enqueue, withdraw
	id   LockID           // release, revokeAck, downgrade, delegAck
	mode Mode             // downgrade: the new mode
	e    *delegationEntry // reclaim
}

// errGrantRaced is a withdrawal's result when the waiter was granted
// first: nothing changed, and the reply is in the waiter's channel.
var errGrantRaced = errors.New("dlm: grant raced the withdrawal")

// do runs one transition: step under res.mu, then the effects it
// decided, once res.mu has dropped.
func (s *Server) do(res *resource, ev *event) error {
	fx := newEffects()
	res.mu.Lock()
	err := s.step(res, ev, fx)
	res.mu.Unlock()
	s.apply(fx)
	return err
}

// step is the grant engine: it applies one transition to res and then
// scans the queue for every grant the transition enables, collecting
// what must be delivered into fx. A refused transition, and one that
// changes nothing, return before the scan. Called with res.mu held.
func (s *Server) step(res *resource, ev *event, fx *effects) error {
	switch ev.kind {
	case evEnqueue:
		// Re-check under res.mu: FreezeExportSlot publishes the frozen
		// view and then sweeps each resource's queue under its mutex, so
		// a request that passed Lock's check either lands in the queue
		// before the sweep (and is redirected by it) or re-checks here
		// and sees the frozen slot. Either way no waiter survives on a
		// slot the engine no longer masters.
		if err := s.CheckMaster(res.id); err != nil {
			return err
		}
		w := ev.w
		w.key = res.wseq
		res.wseq++
		res.queue = append(res.queue, w)
		res.wtree.Insert(w.req.Range, w.key, w)
	case evWithdraw:
		if ev.w.done {
			return errGrantRaced
		}
		res.retire(ev.w) // the withdrawn entry may have blocked later waiters
	case evRelease:
		l := res.granted.get(ev.id)
		if l == nil {
			break
		}
		s.removePreds(res, l)
		res.granted.remove(l)
		s.Stats.Releases.Add(1)
		s.reclaim.deregister(res.id, l.id)
		if len(l.bcast) > 0 {
			// A gathering writer owing its handback released instead
			// (peer send failed or the holder vanished): force-resolve
			// every still-delegated lease and activate the cohort
			// directly (DESIGN.md §14).
			for _, lease := range l.bcast {
				if res.granted.get(lease.id) == lease && lease.delegated {
					fx.acts = s.forceResolve(res, lease, fx.acts)
				}
			}
		} else if succ := l.succ; succ != nil && succ.delegated && res.granted.get(succ.id) == succ {
			// A predecessor released instead of transferring (handoff
			// refused, peer send failed, or the holder vanished): the
			// server sends the successor l's part, naming l, so a
			// successor whose other predecessors transfer peer-to-peer
			// completes too, and counts a predecessor that did both
			// once. Once none of its predecessors is left, the delegation
			// is resolved here as well.
			if !slices.ContainsFunc(succ.preds, func(p *lock) bool { return res.granted.get(p.id) == p }) {
				s.resolveDelegation(res, succ)
			}
			fx.acts = append(fx.acts, activationMsg{client: succ.client, res: res.id, t: Transfer{Lock: succ.id, Member: l.id}})
		}
	case evRevokeAck:
		if l := res.granted.get(ev.id); l != nil && l.state == Granted {
			l.state = Canceling
		}
	case evDowngrade:
		l := res.granted.get(ev.id)
		if l == nil {
			return fmt.Errorf("dlm: downgrade of unknown lock %d", ev.id)
		}
		if !(l.mode == BW && ev.mode == NBW) && !(l.mode == PW && (ev.mode == NBW || ev.mode == PR)) {
			return fmt.Errorf("dlm: invalid downgrade %v -> %v", l.mode, ev.mode)
		}
		if s.policy.MapMode(ev.mode) != ev.mode {
			return wire.Errorf(wire.CodeInvalid, "dlm: mode %v not served by policy %s", ev.mode, s.policy.Name)
		}
		l.mode = ev.mode
		s.Stats.Downgrades.Add(1)
		s.tracer.record(Event{Kind: EvDowngrade, Resource: res.id, Lock: ev.id, Mode: ev.mode})
	case evDelegAck:
		l := res.granted.get(ev.id)
		if l == nil || !l.delegated {
			return nil
		}
		s.removePreds(res, l)
		s.resolveDelegation(res, l)
		s.Stats.HandoffAcks.Add(1)
		s.tracer.record(Event{Kind: EvDelegAck, Resource: res.id, Client: l.client, Lock: ev.id, Mode: l.mode, Range: l.rng, SN: l.sn})
	case evReclaim:
		e := ev.e
		l := res.granted.get(e.succID)
		if l == nil || !l.delegated {
			s.reclaim.deregister(res.id, e.succID)
			break
		}
		if p := res.granted.get(e.predID); p != nil && !p.handedOff {
			// The provider of this delegation is still a legitimately
			// active holder — a pre-armed lease whose writer has not
			// finished (DESIGN.md §14). Force-resolving would activate
			// a reader behind a live writer, so demote to another
			// nudge; the transfer resolves when the writer hands over.
			fx.revs = append(fx.revs, Revocation{Client: e.predCli, Resource: res.id, Lock: e.predID})
			return nil
		}
		fx.acts = s.forceResolve(res, l, fx.acts)
	}
	s.scan(res, fx)
	return nil
}

// MinSN returns the minimum sequence number among unreleased write locks
// overlapping rng — the mSN the extent-cache cleanup task queries
// (§IV-B) — and whether any such lock exists.
func (s *Server) MinSN(resID ResourceID, rng extent.Extent) (extent.SN, bool) {
	res := s.lookup(resID)
	if res == nil {
		return 0, false
	}
	res.mu.Lock()
	defer res.mu.Unlock()
	var msn extent.SN
	found := false
	res.granted.visitCandidates(rng, func(l *lock) bool {
		if !l.mode.IsWrite() || !l.overlapsExtent(rng) {
			return true
		}
		if !found || l.sn < msn {
			msn, found = l.sn, true
		}
		return true
	})
	return msn, found
}

// GrantedCount returns the number of unreleased locks on a resource
// (tests and introspection).
func (s *Server) GrantedCount(resID ResourceID) int {
	res := s.lookup(resID)
	if res == nil {
		return 0
	}
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.granted.len()
}

// QueueLen returns the number of waiting requests on a resource.
func (s *Server) QueueLen(resID ResourceID) int {
	res := s.lookup(resID)
	if res == nil {
		return 0
	}
	res.mu.Lock()
	defer res.mu.Unlock()
	n := 0
	for _, w := range res.queue {
		if !w.done {
			n++
		}
	}
	return n
}

func (l *lock) overlapsExtent(e extent.Extent) bool {
	if len(l.set) > 0 {
		return l.set.OverlapsExtent(e)
	}
	return l.rng.Overlaps(e)
}

func (l *lock) overlapsReq(req *Request) bool {
	if len(req.Extents) > 0 && len(l.set) > 0 {
		return req.Extents.Overlaps(l.set)
	}
	if len(req.Extents) > 0 {
		return req.Extents.OverlapsExtent(l.rng)
	}
	return l.overlapsExtent(req.Range)
}

// compatible applies the LCM plus the EarlyGrant policy switch: with
// early grant disabled, the N/Y cells of Table II behave as N. A
// handed-off lock behaves as CANCELING: its holder has been told to
// transfer it, so — exactly like an acked revocation — the early-grant
// cells apply and the successor chain can keep growing.
func (s *Server) compatible(reqMode Mode, l *lock) bool {
	st := l.state
	m := l.mode
	if l.handedOff || len(l.bcast) > 0 {
		// A handed-off lock behaves as if its cancel already ran: the
		// holder will flush and transfer, so it is checked as Canceling
		// at its post-cancel downgraded mode — a handed-off PW writer
		// has exactly a canceling NBW's remaining obligations. This is
		// what lets a chain of NBW delegations keep stamping while the
		// predecessors' acks are still in flight. A lock with a
		// pre-armed handback (bcast) is in the same position before its
		// revocation even fires: its handle was born CANCELING with the
		// transfer obligation, so it can only ever be used once and then
		// handed to the cohort. Without this a fan rotation's previous
		// writer lock — retired only by the next cohort's acks, a full
		// round later — would block the next gather.
		st = Canceling
		if d := Downgrade(m, m.IsWrite()); d != ModeNone {
			m = d
		}
	}
	ok := Compatible(reqMode, m, st)
	if ok && st == Canceling && !s.policy.EarlyGrant &&
		!Compatible(reqMode, m, Granted) {
		return false
	}
	return ok
}

// conflicts returns the granted locks incompatible with the request at
// mode m over range covered by the waiter. Only the locks whose range
// overlaps the request's bounding range are probed; a request carrying a
// non-contiguous extent set is refined by the precise overlap test. The
// result is res's scratch slice, valid until the next call: a caller
// that keeps it copies it.
func (s *Server) conflicts(res *resource, w *waiter, m Mode) []*lock {
	out := res.confs[:0]
	res.granted.visitCandidates(w.req.Range, func(l *lock) bool {
		if l.overlapsReq(&w.req) && !s.compatible(m, l) {
			out = append(out, l)
		}
		return true
	})
	res.confs = out
	return out
}

// fire hands revocations to the batching revoker outside all locks. The
// revoker coalesces them per destination client and delivers to every
// client at once, one delivery in flight per client (DESIGN.md §9);
// deliveries may block inside the notifier RPC, whose reply re-enters
// the server.
func (s *Server) fire(revs []Revocation) {
	if len(revs) == 0 {
		return
	}
	for _, rv := range revs {
		s.Stats.Revocations.Add(1)
		s.tracer.record(Event{Kind: EvRevokeSent, Resource: rv.Resource, Client: rv.Client, Lock: rv.Lock})
	}
	s.revoker.enqueue(revs)
}

// grantSend is a deferred waiter reply: grants are decided under res.mu
// (so SN stamping stays in queue order) but delivered only after it
// drops, letting one scan pass retire a whole run of compatible
// shared-mode waiters before any reply goes out. The replies then drain
// back-to-back onto their connections, where the transport's send
// batching coalesces per-client traffic (DESIGN.md §14).
type grantSend struct {
	w *waiter
	r lockResult
}

// effects collects everything a scan pass decided under res.mu that
// must happen after it drops: grant replies, revocations, server-sent
// activations, and ack solicitations.
type effects struct {
	revs     []Revocation
	sends    []grantSend
	acts     []activationMsg
	solicits []solicitMsg
}

// effectsPool recycles effects records: every newEffects is paired
// with the apply that consumes it.
var effectsPool = sync.Pool{New: func() any { return new(effects) }}

func newEffects() *effects { return effectsPool.Get().(*effects) }

// apply delivers deferred effects outside res.mu, then recycles fx:
// everything in it has been handed on by value — replies sent,
// revocations copied into the revoker's queues, messages sent. Grant
// replies go first so a run of fan-out grants reaches the waiters in one
// burst before any revocation round trip starts.
//
// A reply is the last touch of its waiter: the receiver may recycle the
// waiter the moment the send lands, so sim.Send takes the channel before
// the send and wakes that copy (DESIGN.md §8).
func (s *Server) apply(fx *effects) {
	for _, g := range fx.sends {
		sim.Send(s.clk, g.w.ch, g.r)
	}
	s.fire(fx.revs)
	for _, a := range fx.acts {
		s.sendActivation(a)
	}
	for _, m := range fx.solicits {
		s.sendSolicit(m)
	}
	clear(fx.sends)
	clear(fx.revs)
	fx.sends, fx.revs, fx.acts, fx.solicits = fx.sends[:0], fx.revs[:0], fx.acts[:0], fx.solicits[:0]
	effectsPool.Put(fx)
}

// scan drives the grant state machine for a resource. It is called with
// res.mu held after every state transition (new request, revocation
// reply, downgrade, release) and keeps granting until no further waiter
// can proceed, accumulating the deferred effects into fx.
func (s *Server) scan(res *resource, fx *effects) {
	for {
		granted := false
		passShared := 0
		blocked := &res.blocked
		blocked.reset()
		for _, w := range res.queue {
			if w.done {
				continue
			}
			if blocked.blocks(&w.req) {
				blocked.add(&w.req)
				continue
			}
			if s.tryGrant(res, w, fx) {
				granted = true
				if !w.req.Mode.IsWrite() {
					passShared++
				}
			} else {
				blocked.add(&w.req)
			}
		}
		// A single pass that granted a run of shared-mode waiters is a
		// fan-out grant: the run was stamped in queue order under one
		// res.mu hold and its replies are delivered in one burst.
		if passShared >= 2 {
			s.Stats.FanRuns.Add(1)
			s.Stats.FanGrants.Add(int64(passShared))
		}
		// Compact the queue.
		live := res.queue[:0]
		for _, w := range res.queue {
			if !w.done {
				live = append(live, w)
			}
		}
		res.queue = live
		if !granted {
			return
		}
	}
}

// blockedSet holds the waiters one scan pass has left blocked, as the
// ranges they cover per mode. FIFO fairness — a waiter may not overtake
// an earlier blocked waiter it conflicts with — looks at a blocked
// waiter only through its mode and range, so a range that an earlier
// entry of the same mode already covers adds nothing: a thousand readers
// queued on one range behind a writer are one entry, and a pass over
// them is linear, where testing each against every earlier one was
// quadratic.
type blockedSet [PW + 1][]extent.Extent

// reset empties b, keeping its slices' storage for the next pass.
func (b *blockedSet) reset() {
	for m := range b {
		b[m] = b[m][:0]
	}
}

// add records r as blocked.
func (b *blockedSet) add(r *Request) {
	if len(r.Extents) == 0 {
		b.addRange(r.Mode, r.Range)
		return
	}
	for _, e := range r.Extents {
		b.addRange(r.Mode, e)
	}
}

func (b *blockedSet) addRange(m Mode, e extent.Extent) {
	for _, have := range b[m] {
		if have.Contains(e) {
			return
		}
	}
	b[m] = append(b[m], e)
}

// blocks reports whether r overlaps a blocked waiter of a mode it is not
// mutually compatible with.
func (b *blockedSet) blocks(r *Request) bool {
	for m := range b {
		if len(b[m]) == 0 {
			continue
		}
		if m := Mode(m); Compatible(r.Mode, m, Granted) && Compatible(m, r.Mode, Granted) {
			continue
		}
		for _, e := range b[m] {
			if len(r.Extents) > 0 {
				if r.Extents.OverlapsExtent(e) {
					return true
				}
			} else if r.Range.Overlaps(e) {
				return true
			}
		}
	}
	return false
}

// tryGrant attempts to grant one waiter, handling lock upgrading. It
// appends any new revocations and deferred replies to fx and reports
// whether a grant happened.
func (s *Server) tryGrant(res *resource, w *waiter, fx *effects) bool {
	mode := w.req.Mode
	confs := s.conflicts(res, w, mode)

	var absorbed []*lock
	if s.policy.Conversion && len(confs) > 0 {
		// Lock upgrading (§III-D1): conflicts with GRANTED locks cached
		// by the same client upgrade the request instead of revoking.
		var same []*lock
		for _, c := range confs {
			if c.client == w.req.Client && c.state == Granted {
				same = append(same, c)
			}
		}
		if len(same) > 0 {
			// The upgraded lock will cover the UNION of the request and
			// every absorbed lock, so conflicts must be evaluated over
			// that union, not just the request range: the union can reach
			// locks the request never touched (e.g. another client's PR
			// overlapping only the absorbed NBW's expanded range, which
			// becomes incompatible once the target mode is PW). Growing
			// the union can absorb further same-client locks, so iterate
			// to a fixpoint.
			target := mode
			union := w.req.Range
			absorbedSet := make(map[*lock]bool, len(same))
			for _, c := range same {
				target = Upgrade(target, c.mode)
				union = union.Union(c.rng)
				absorbedSet[c] = true
			}
			for changed := true; changed; {
				changed = false
				// The visit is bounded by the union as of this pass; a
				// lock only reachable through the union grown mid-pass
				// sets changed and is collected next pass.
				res.granted.visitCandidates(union, func(l *lock) bool {
					if absorbedSet[l] || l.client != w.req.Client || l.state != Granted {
						return true
					}
					if l.overlapsExtent(union) && !s.compatible(target, l) {
						target = Upgrade(target, l.mode)
						union = union.Union(l.rng)
						absorbedSet[l] = true
						changed = true
					}
					return true
				})
			}
			mode = target
			confs = confs[:0]
			// Every absorbed lock overlaps the union (the union contains
			// its range), so the bounded visit sees all of them.
			res.granted.visitCandidates(union, func(l *lock) bool {
				if absorbedSet[l] {
					absorbed = append(absorbed, l)
					return true
				}
				if l.overlapsExtent(union) && !s.compatible(mode, l) {
					confs = append(confs, l)
				}
				return true
			})
		}
	}

	if len(confs) > 0 {
		if len(absorbed) == 0 && s.stampDelegation(res, w, mode, confs, fx) {
			return true
		}
		w.hadConflict = true
		allCanceling := true
		// A delegated lock's owner has not confirmed the transfer yet;
		// revoking it mid-flight would waste the handoff and permanently
		// disqualify the lock from delegation once it settles.
		// While any conflicting delegation is in flight, hold fire on the
		// quiet conflicts too: their acks arrive one by one, and revoking
		// each member the moment it settles would destroy, piecemeal, a
		// cohort the gather stamp collects whole once the last ack lands.
		// Every resolution path (ack, release, reclaim) re-scans, so the
		// waiter's revocations are only deferred, never lost.
		inFlight := false
		for _, c := range confs {
			if c.state == Granted && c.delegated {
				inFlight = true
				break
			}
		}
		for _, c := range confs {
			if c.state == Granted {
				allCanceling = false
				if !c.revokeSent && !inFlight {
					c.revokeSent = true
					fx.revs = append(fx.revs, Revocation{Client: c.client, Resource: res.id, Lock: c.id})
				}
			}
			s.solicitAck(res, w, c, fx)
		}
		if allCanceling && w.allCancelAt.IsZero() {
			w.allCancelAt = s.clk.Now()
		}
		return false
	}

	s.grant(res, w, mode, absorbed, fx)
	return true
}

// grant installs the lock, expands its range, decides early revocation,
// and defers the reply into fx.
func (s *Server) grant(res *resource, w *waiter, mode Mode, absorbed []*lock, fx *effects) {
	rng := w.req.Range
	for _, a := range absorbed {
		rng = rng.Union(a.rng)
	}
	baseEnd := rng.End
	if len(w.req.Extents) == 0 {
		rng.End = s.expandEnd(res, w, mode, rng)
	}
	couldExpand := rng.End > baseEnd

	// An early grant: some overlapping write lock is still unreleased in
	// CANCELING state, so this grant did not wait for its data flushing.
	// It is contended when that lock is another client's: the range is
	// under write-write contention right now.
	early, contended := false, false
	if mode.IsWrite() {
		res.granted.visitCandidates(w.req.Range, func(l *lock) bool {
			if l.state == Canceling && l.mode.IsWrite() && l.overlapsReq(&w.req) {
				early = true
				contended = l.client != w.req.Client
			}
			return !contended
		})
	}
	if early {
		s.Stats.EarlyGrants.Add(1)
	}

	state := Granted
	if s.policy.EarlyRevocation && !couldExpand && (contended || s.queueConflict(res, w, mode, rng)) {
		// Early revocation (§III-A2): the lock could not be expanded and
		// either already conflicts with a queued request or was granted
		// early over another client's canceling write, so it is granted
		// pre-revoked; the client cancels it right after use — its pages
		// reach the disk beside its neighbours' cancel flushes instead
		// of waiting for the drain — and the server never waits for a
		// revocation round trip.
		state = Canceling
		s.Stats.EarlyRevocations.Add(1)
	}

	// Remove absorbed same-client locks; the grant reply tells the
	// client to merge them.
	var absorbedIDs []LockID
	if len(absorbed) > 0 {
		s.Stats.Upgrades.Add(1)
		s.tracer.record(Event{Kind: EvUpgrade, Resource: res.id, Client: w.req.Client, Mode: mode})
		for _, a := range absorbed {
			absorbedIDs = append(absorbedIDs, a.id)
			res.granted.remove(a)
		}
	}

	l := s.install(res, &lock{client: w.req.Client, mode: mode, rng: rng, set: w.req.Extents, state: state, revokeSent: state == Canceling})
	if state == Canceling {
		s.tracer.record(Event{Kind: EvEarlyRevocation, Resource: res.id, Client: w.req.Client, Lock: l.id, Mode: mode})
	}
	s.admit(res, w, Grant{LockID: l.id, Mode: mode, Range: rng, SN: l.sn, State: state, Absorbed: absorbedIDs}, fx)
}

// install is the one way a grant this engine decides enters the granted
// set, for plain and stamped grants alike: l gets a fresh lock ID and the sequencer's next
// SN, and a write lock bumps the sequencer, so SNs follow grant order.
// Called with res.mu held.
func (s *Server) install(res *resource, l *lock) *lock {
	l.id = s.newLockID()
	l.sn = res.nextSN
	if l.mode.IsWrite() {
		res.nextSN++
	}
	res.granted.insert(l)
	res.grants++
	return l
}

// admit answers waiter w with grant g: it counts the grant, attributes
// the wait, traces it, retires w and defers the reply into fx.
//
// Wait-time attribution for the Fig. 17 breakdown: time from enqueue to
// all-conflicts-canceling is revocation wait; from there to grant is
// cancel (flush + release) wait. A waiter that became compatible before
// every conflict reached CANCELING — an early grant — or whose conflict
// was delegated to it had no cancel phase: its whole wait is revocation
// wait, and no fabricated zero cancel wait is recorded. Invariant:
// RevocationWait + CancelWait <= GrantWait per grant.
func (s *Server) admit(res *resource, w *waiter, g Grant, fx *effects) {
	now := s.clk.Now()
	s.Stats.Grants.Add(1)
	s.Stats.GrantWaitHist.Record(now.Sub(w.enqAt).Nanoseconds())
	if at := w.allCancelAt; w.hadConflict && (at.IsZero() || g.Delegated) {
		s.Stats.RevocationWaitHist.Record(now.Sub(w.enqAt).Nanoseconds())
	} else if w.hadConflict {
		// Clamp against clock anomalies and late-arriving conflicts so
		// neither component can go negative or overshoot the total wait.
		if at.Before(w.enqAt) {
			at = w.enqAt
		}
		if at.After(now) {
			at = now
		}
		s.Stats.RevocationWaitHist.Record(at.Sub(w.enqAt).Nanoseconds())
		s.Stats.CancelWaitHist.Record(now.Sub(at).Nanoseconds())
	}
	s.tracer.record(Event{Kind: EvGrant, Resource: res.id, Client: w.req.Client, Lock: g.LockID, Mode: g.Mode, Range: g.Range, SN: g.SN})
	res.retire(w)
	fx.sends = append(fx.sends, grantSend{w: w, r: lockResult{g: g}})
}

// expandEnd implements lock range expanding: grow the end of the range
// to the largest address compatible with every other granted lock and
// queued request, subject to the policy's rule. Another client's
// CANCELING write lock caps a write grant too: early grant admits only
// the requested range beside it (DESIGN.md §9).
func (s *Server) expandEnd(res *resource, w *waiter, mode Mode, rng extent.Extent) int64 {
	if s.policy.Expand == ExpandNone {
		return rng.End
	}
	end := extent.Inf
	// Both indexes order entries by ascending start, so the first
	// incompatible entry at or past rng.End is the tightest cap; stop
	// there, or once starts reach a cap already found.
	res.granted.tree.VisitFrom(rng.End, func(_ extent.Extent, _ uint64, l *lock) bool {
		if l.rng.Start >= end {
			return false
		}
		if !s.compatible(mode, l) || mode.IsWrite() && l.state == Canceling && l.mode.IsWrite() && l.client != w.req.Client {
			end = l.rng.Start
			return false
		}
		return true
	})
	res.wtree.VisitFrom(rng.End, func(_ extent.Extent, _ uint64, other *waiter) bool {
		if other.req.Range.Start >= end {
			return false
		}
		if other != w && !Compatible(other.req.Mode, mode, Granted) {
			end = other.req.Range.Start
			return false
		}
		return true
	})
	if s.policy.Expand == ExpandLustre && res.grants > s.policy.LustreLockThreshold {
		cap := rng.Start + s.policy.LustreCapBytes
		if cap < rng.End {
			cap = rng.End
		}
		if end > cap {
			end = cap
		}
	}
	if end < rng.End {
		end = rng.End
	}
	return end
}

// queueConflict reports whether any other waiting request would conflict
// with a lock granted at (mode, rng) — condition (1) of early
// revocation.
func (s *Server) queueConflict(res *resource, w *waiter, mode Mode, rng extent.Extent) bool {
	// The queue index is keyed by each request's bounding range, and an
	// extent set overlapping rng implies its bounds do too, so the
	// range-overlap probe needs no extent-set refinement.
	found := false
	res.wtree.VisitOverlap(rng, func(_ extent.Extent, _ uint64, other *waiter) bool {
		if other != w && !Compatible(other.req.Mode, mode, Granted) {
			found = true
			return false
		}
		return true
	})
	return found
}

// CheckInvariants validates the core safety property on every resource:
// no two overlapping locks are simultaneously held in states the LCM
// forbids — in particular, two overlapping write locks can never both be
// GRANTED. It returns the first violation found. Tests call it at
// quiescent points; it takes every resource lock briefly.
func (s *Server) CheckInvariants() error {
	for _, res := range s.allResources() {
		res.mu.Lock()
		for i, a := range res.granted.list {
			for _, b := range res.granted.list[i+1:] {
				if a.client == b.client {
					continue // same-client coexistence is managed by upgrade/merge
				}
				if a.handedOff || b.handedOff || len(a.bcast) > 0 || len(b.bcast) > 0 {
					// Delegation pairs — including a writer owing a
					// pre-armed handback — coexist until the successor's
					// ack retires the predecessor.
					continue
				}
				if a.delegated || b.delegated {
					// A delegated lock (single successor, gathering
					// writer, or pre-armed lease) is not usable until
					// its transfer arrives; it legally overlaps the
					// active holder it will replace.
					continue
				}
				overlap := a.rng.Overlaps(b.rng)
				if len(a.set) > 0 && len(b.set) > 0 {
					overlap = a.set.Overlaps(b.set)
				}
				if !overlap {
					continue
				}
				if a.state == Granted && b.state == Granted &&
					!Compatible(a.mode, b.mode, Granted) && !Compatible(b.mode, a.mode, Granted) {
					res.mu.Unlock()
					return fmt.Errorf("dlm: resource %d: overlapping GRANTED locks %d(%v,%v) and %d(%v,%v)",
						res.id, a.id, a.mode, a.rng, b.id, b.mode, b.rng)
				}
			}
		}
		res.mu.Unlock()
	}
	return nil
}
