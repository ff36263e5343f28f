package dlm

import (
	"sort"
	"sync"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// Client-to-client lock handoff (DESIGN.md §13). When a revocation's
// conflict is owed to exactly one waiter, the server stamps the revoke
// with a delegation grant — next owner, mode, SN, flush obligation —
// and the holder transfers the lock directly to that client instead of
// flushing-and-releasing back to the server. The new owner starts
// using the lock the moment the transfer arrives and acknowledges the
// server asynchronously (piggybacked on its next lock request when
// possible), cutting the per-exchange server cost of stable conflict
// patterns from two lock RPCs to about one.

// DefaultHandoffTimeout bounds how long a delegation may stay
// unconfirmed before the reclaimer first re-revokes the previous
// holder and, one period later, force-resolves the transfer.
const DefaultHandoffTimeout = 250 * time.Millisecond

// Stamp is a delegation (DESIGN.md §13, §14): the ordered cohort of at
// least one lease the server installed for the next owners, the mode
// they share, and whether the holder must flush its writes before it
// transfers. Leases[0] is the next owner: the successor of a handoff,
// who waits for the lock under its own delegated grant, or the lead of
// a reader cohort, who installs its lease over Range and propagates the
// rest down a tree of Fanout children per node. A revocation's stamp is
// a handoff, a cohort of one with Fanout 0; a gather grant's handback is
// a cohort of one lease per displaced reader.
type Stamp struct {
	Mode      Mode
	MustFlush bool
	Leases    []Lease
	Range     extent.Extent
	Fanout    int
	// one backs Leases for a handoff, so that building or decoding one
	// is a single allocation. A stamp is never changed once built, so a
	// copy may share it.
	one [1]Lease
}

// Lease names one pre-installed delegated lock of a stamp's cohort.
type Lease struct {
	Owner  ClientID
	LockID LockID
	SN     extent.SN
}

// newStamp returns a stamp with room for n leases.
func newStamp(mode Mode, mustFlush bool, n int) *Stamp {
	s := &Stamp{Mode: mode, MustFlush: mustFlush}
	if s.Leases = s.one[:0]; n > 1 {
		s.Leases = make([]Lease, 0, n)
	}
	return s
}

// StampToWire writes s into w, reusing w's lease array, and returns w;
// with a nil w it allocates one. A nil s maps to nil.
func StampToWire(s *Stamp, w *wire.Stamp) *wire.Stamp {
	if s == nil {
		return nil
	}
	if w == nil {
		w = new(wire.Stamp)
	}
	w.Mode, w.MustFlush, w.Range, w.Fanout = uint8(s.Mode), s.MustFlush, s.Range, uint8(s.Fanout)
	w.ResetLeases(len(s.Leases))
	for _, l := range s.Leases {
		w.Leases = append(w.Leases, wire.Lease{Owner: uint32(l.Owner), LockID: uint64(l.LockID), SN: uint64(l.SN)})
	}
	return w
}

// StampFromWire converts a wire stamp to its dlm form (nil maps to nil).
func StampFromWire(w *wire.Stamp) *Stamp {
	if w == nil {
		return nil
	}
	s := newStamp(Mode(w.Mode), w.MustFlush, len(w.Leases))
	s.Range, s.Fanout = w.Range, int(w.Fanout)
	for _, l := range w.Leases {
		s.Leases = append(s.Leases, Lease{Owner: ClientID(l.Owner), LockID: LockID(l.LockID), SN: extent.SN(l.SN)})
	}
	return s
}

// activationMsg is a server-sent message naming one delegated lock and
// its owner — an activation or an ack solicitation — captured under
// res.mu and delivered after it drops.
type activationMsg struct {
	client ClientID
	res    ResourceID
	id     LockID
	member LockID // a gather part the server covers: the member that released
}

// stampHandoff attempts to retire waiter w by delegating the single
// conflicting lock c to it: the successor lock is installed
// immediately (SN assigned under res.mu, so stamp order is grant order
// and SN stays monotonic), the waiter's grant reply is marked
// Delegated, and the revocation appended to revs carries the stamp.
// Called from tryGrant with res.mu held; reports whether it stamped.
func (s *Server) stampHandoff(res *resource, w *waiter, mode Mode, c *lock, fx *effects) bool {
	// Both sides must be plain ranges — datatype extent sets release
	// after every operation and gain nothing.
	if !s.handoffOn || !quiet(c, w.req.Client) || len(w.req.Extents) > 0 {
		return false
	}

	// From here on c behaves as CANCELING (compatible), so range
	// expansion below may legally run through it; the transfer's
	// flush-before-handoff obligation plus SN ordering make the
	// overlap as safe as an early grant.
	c.handedOff, c.revokeSent = true, true
	rng := w.req.Range
	rng.End = s.expandEnd(res, w, mode, rng)
	l := s.install(res, &lock{client: w.req.Client, mode: mode, rng: rng, delegated: true, pred: c})
	c.succ = l
	fx.revs = append(fx.revs, stampedRevocation(res, c, l))
	s.Stats.Handoffs.Add(1)
	s.reclaim.register(s, res, c, l)
	s.admit(res, w, Grant{LockID: l.id, Mode: mode, Range: rng, SN: l.sn, Delegated: true}, fx)
	return true
}

// quiet reports whether lock c may be delegated to client: it is
// quietly GRANTED — neither revoked, nor handed off, nor already
// delegating — held by another client, and a plain range. A lock being
// revoked or handed off follows the normal path.
func quiet(c *lock, client ClientID) bool {
	return c.state == Granted && !c.revokeSent && !c.handedOff && c.succ == nil &&
		c.client != client && len(c.set) == 0
}

// stampedRevocation is c's revocation stamped with the handoff of its
// lock to l: a cohort of one.
func stampedRevocation(res *resource, c, l *lock) Revocation {
	s := newStamp(l.mode, c.mode.IsWrite(), 1)
	s.Leases = append(s.Leases, Lease{Owner: l.client, LockID: l.id, SN: l.sn})
	return Revocation{Client: c.client, Resource: res.id, Lock: c.id, Handoff: s}
}

// HandoffAck records the new owner's confirmation of one or more
// delegated locks of a resource as one standalone client operation: the
// whole batch costs one lock op. For each, the predecessor chain is
// retired — the previous holder transferred the lock and will never
// release it — and the delegation is confirmed. Unknown or
// already-confirmed locks are ignored (duplicate acks are harmless).
func (s *Server) HandoffAck(resID ResourceID, ids ...LockID) {
	s.handoffAck(resID, ids, true)
}

// handoffAck confirms delegated locks of one resource, one step each.
// Acks piggybacked on a Lock request (standalone false) ride inside it
// and cost no lock op of their own.
func (s *Server) handoffAck(resID ResourceID, ids []LockID, standalone bool) {
	res := s.lookup(resID)
	if res == nil {
		return
	}
	if standalone {
		s.Stats.LockOps.Add(1)
	}
	for _, id := range ids {
		s.do(res, &event{kind: evDelegAck, id: id})
	}
}

// removePreds retires l's whole predecessor closure — the single-pred
// chain plus, for a gathering write lock, its displaced cohort: every
// member transferred its lock away, so each removal counts as a
// release. Predecessors may be shared between ack paths (a cohort
// member's own ack and the gathering writer's, for instance), so
// retirement is idempotent: a lock is only retired while it is still
// the table's entry for its ID. Called with res.mu held.
func (s *Server) removePreds(res *resource, l *lock) {
	var retire func(p *lock)
	retire = func(p *lock) {
		if p == nil || res.granted.get(p.id) != p {
			return
		}
		next := p.pred
		preds := p.preds
		res.granted.remove(p)
		s.Stats.Releases.Add(1)
		s.reclaim.deregister(res.id, p.id)
		p.pred, p.succ, p.preds, p.bcast = nil, nil, nil, nil
		retire(next)
		for _, q := range preds {
			retire(q)
		}
	}
	retire(l.pred)
	for _, q := range l.preds {
		retire(q)
	}
	l.pred = nil
	l.preds = nil
}

// removeWithPreds removes l and its predecessor chain. Called with
// res.mu held.
func (s *Server) removeWithPreds(res *resource, l *lock) {
	s.removePreds(res, l)
	res.granted.remove(l)
	s.Stats.Releases.Add(1)
	s.reclaim.deregister(res.id, l.id)
}

// resolveDelegation confirms a delegation server-side without an ack:
// the successor becomes a plain granted lock and the caller must send
// the returned activation once res.mu drops, so the owner stops
// waiting for a transfer that will never arrive. Called with res.mu
// held; the caller has already detached/removed the predecessor.
func (s *Server) resolveDelegation(res *resource, l *lock) activationMsg {
	l.delegated = false
	l.pred = nil
	s.reclaim.deregister(res.id, l.id)
	return activationMsg{client: l.client, res: res.id, id: l.id}
}

// sendActivation delivers a server-sent activation, or a gather part
// the server covers, through the notifier. Duplicates (server-sent
// racing the peer transfer) are idempotent client-side.
func (s *Server) sendActivation(a activationMsg) {
	s.clk.Go(func() { s.notifier.Handoff(s.baseCtx, a.client, a.res, a.id, a.member) })
}

// solicitAck makes the confirmation of a delegation demand-driven. w
// stays blocked by conflict c; if c heads a delegation chain, nothing
// the server can send c's holder helps — c is retired only when the
// chain's last owner confirms its transfer (a delegAck step → removePreds)
// — and if c is itself an unconfirmed delegation, revoking it must wait
// for that same confirmation (tryGrant's hold-fire rule). Either way the
// way out is one ack that its owner would otherwise send lazily, so ask
// for it, once per delegation. The solicitation changes when that ack is
// sent, never what it confirms: the owner still acks only a transfer
// that has arrived. Called from tryGrant with res.mu held.
func (s *Server) solicitAck(res *resource, w *waiter, c *lock, fx *effects) {
	t := c
	for t.succ != nil {
		t = t.succ
	}
	if !t.delegated || t.solicited {
		return
	}
	t.solicited = true
	s.Stats.AckSolicits.Add(1)
	s.tracer.record(Event{Kind: EvAckSolicit, Resource: res.id, Client: w.req.Client, Mode: w.req.Mode,
		Range: w.req.Range, Lock: c.id, Succ: t.id, SuccClient: t.client})
	fx.solicits = append(fx.solicits, activationMsg{client: t.client, res: res.id, id: t.id})
}

// sendSolicit delivers an ack solicitation through the notifier. A lost
// one costs nothing but time: the lazy ack and the reclaimer still stand
// behind it.
func (s *Server) sendSolicit(m activationMsg) {
	s.clk.Go(func() { s.notifier.SolicitAck(s.baseCtx, m.client, m.res, m.id) })
}

// delegationEntry tracks one outstanding delegation for the
// reclaimer: which successor is unconfirmed, and which holder owes
// the transfer.
type delegationEntry struct {
	res      *resource
	succID   LockID
	predID   LockID
	predCli  ClientID
	deadline time.Time
	// phase 0: not yet nudged; 1: the previous holder was re-revoked
	// (plain, unstamped) and given one more period; >=1 expiry
	// force-resolves.
	phase int
}

// handoffReclaimer is the safety net behind asynchronous acks: if a
// delegation is not confirmed within the timeout, the server first
// re-sends a plain revocation to the previous holder (the normal
// cancel path — its Release resolves the delegation), and one period
// later force-resolves the transfer, activating the successor
// directly. The daemon goroutine is lazy: started on first
// registration, retired when the registry drains.
type handoffReclaimer struct {
	mu      sync.Mutex
	entries map[lockKey]*delegationEntry
	running bool
}

func (r *handoffReclaimer) register(s *Server, res *resource, pred, succ *lock) {
	deadline := s.clk.Now().Add(time.Duration(s.handoffTimeout.Load()))
	r.mu.Lock()
	if r.entries == nil {
		r.entries = make(map[lockKey]*delegationEntry)
	}
	r.entries[lockKey{res: res.id, id: succ.id}] = &delegationEntry{
		res: res, succID: succ.id, predID: pred.id, predCli: pred.client,
		deadline: deadline,
	}
	if !r.running {
		r.running = true
		s.clk.Go(func() { r.loop(s) })
	}
	r.mu.Unlock()
}

func (r *handoffReclaimer) deregister(res ResourceID, succ LockID) {
	r.mu.Lock()
	delete(r.entries, lockKey{res: res, id: succ})
	r.mu.Unlock()
}

func (r *handoffReclaimer) loop(s *Server) {
	period := time.Duration(s.handoffTimeout.Load()) / 2
	if period <= 0 {
		period = time.Millisecond
	}
	for s.clk.SleepCtx(s.baseCtx, period) {
		now := s.clk.Now()
		type action struct {
			e     delegationEntry
			phase int
		}
		var acts []action
		r.mu.Lock()
		for _, e := range r.entries {
			if !now.After(e.deadline) {
				continue
			}
			acts = append(acts, action{e: *e, phase: e.phase})
			e.phase++
			e.deadline = now.Add(time.Duration(s.handoffTimeout.Load()))
		}
		if len(r.entries) == 0 {
			r.running = false
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		// Deterministic reclaim order regardless of registry-map
		// iteration order.
		sort.Slice(acts, func(i, j int) bool {
			if acts[i].e.res.id != acts[j].e.res.id {
				return acts[i].e.res.id < acts[j].e.res.id
			}
			return acts[i].e.succID < acts[j].e.succID
		})
		for _, a := range acts {
			switch {
			case s.CheckMaster(a.e.res.id) != nil:
				// Mastership moved; the freeze path resolved or exported
				// the delegation already.
				s.reclaim.deregister(a.e.res.id, a.e.succID)
			case a.phase == 0:
				s.reclaimNudge(&a.e)
			default:
				// Force: resolve the delegation without the holder's
				// cooperation (the evReclaim step). The holder has
				// vanished or the transfer was lost; this mirrors
				// dead-client lock reclamation, with the same exposure —
				// any unflushed predecessor data is bounded by SN
				// ordering at the extent cache, exactly as for an early
				// grant.
				s.do(a.e.res, &event{kind: evReclaim, e: &a.e})
			}
		}
	}
	r.mu.Lock()
	r.running = false
	r.mu.Unlock()
}

// reclaimNudge re-sends a plain (unstamped) revocation to the
// previous holder of an expired delegation: if the holder is merely
// slow, its normal cancel — flush then release — resolves the
// delegation through the Release hook.
func (s *Server) reclaimNudge(e *delegationEntry) {
	res := e.res
	res.mu.Lock()
	l := res.granted.get(e.succID)
	live := l != nil && l.delegated
	pred := res.granted.get(e.predID)
	res.mu.Unlock()
	if !live {
		s.reclaim.deregister(res.id, e.succID)
		return
	}
	if pred != nil {
		s.fire([]Revocation{{Client: e.predCli, Resource: res.id, Lock: e.predID}})
	}
}

// resolveSlotDelegations force-resolves every outstanding delegation
// on a frozen resource before its locks are exported (partition.go):
// the predecessor chains are retired so the importing master never
// sees overlapping handed-off pairs it has no delegation state for,
// and the successors export as plain granted locks. The returned
// activations must be sent after the freeze completes — the peer
// transfer may still arrive and activate the owner first, which is
// fine (activations are idempotent client-side). Called with res.mu
// held.
func (s *Server) resolveSlotDelegations(res *resource) []activationMsg {
	var delegated []*lock
	for _, l := range res.granted.list {
		if l.delegated {
			delegated = append(delegated, l)
		}
	}
	var acts []activationMsg
	for _, l := range delegated {
		s.removePreds(res, l)
		acts = append(acts, s.resolveDelegation(res, l))
		s.Stats.HandoffReclaims.Add(1)
	}
	return acts
}
