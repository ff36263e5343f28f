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
	member LockID // a part the server covers: the predecessor that released
}

// stampDelegation attempts to retire waiter w by delegating its
// conflicts confs to it: a cohort of one or more predecessors converging
// on one delegated successor (DESIGN.md §13, §14). The successor is
// installed at once (SN assigned under res.mu, so stamp order is grant
// order and SN stays monotonic), every predecessor's revocation is
// stamped toward it, and w's grant reply is marked Delegated: the
// successor collects one client-to-client part per predecessor. A
// handoff is a cohort of one. A gather is a cohort of at least two quiet
// shared locks of one mode toward a write waiter, with fan-out on, and
// its grant also pre-arms the handback (preArm). Called from tryGrant
// with res.mu held; reports whether it stamped.
func (s *Server) stampDelegation(res *resource, w *waiter, mode Mode, confs []*lock, fx *effects) bool {
	// Both sides must be plain ranges — datatype extent sets release
	// after every operation and gain nothing.
	if !s.handoffOn || len(w.req.Extents) > 0 {
		return false
	}
	gather := len(confs) > 1
	if gather && (!s.fanOn || !mode.IsWrite()) {
		return false
	}
	// Delegated (not-yet-acked) leases qualify as quiet: their holders
	// receive the stamped revocation whenever the lease arrives, and
	// their transfers complete the delegation just the same.
	shared := confs[0].mode
	for _, c := range confs {
		if !quiet(c, w.req.Client) || gather && (c.mode.IsWrite() || c.mode != shared) {
			return false
		}
	}

	// From here on the cohort behaves as CANCELING (compatible), so
	// range expansion below may legally run through it; the transfer's
	// flush-before-handoff obligation plus SN ordering make the overlap
	// as safe as an early grant.
	for _, c := range confs {
		c.handedOff, c.revokeSent = true, true
	}
	rng := w.req.Range
	rng.End = s.expandEnd(res, w, mode, rng)
	l := &lock{client: w.req.Client, mode: mode, rng: rng, delegated: true}
	l.preds = append(l.one[:0], confs...)
	s.install(res, l)
	for _, c := range confs {
		c.succ = l
		fx.revs = append(fx.revs, stampedRevocation(res, c, l))
	}
	s.reclaim.register(s, res, confs[0], l)
	g := Grant{LockID: l.id, Mode: mode, Range: rng, SN: l.sn, Delegated: true}
	if gather {
		g.GatherParts, g.HandBack = len(confs), s.preArm(res, l, shared)
		s.Stats.Gathers.Add(1)
	}
	s.Stats.Handoffs.Add(1)
	s.admit(res, w, g, fx)
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

// removePreds retires l's whole predecessor closure: its preds, their
// preds, and so on. Every predecessor transferred its lock away, so
// each removal counts as a release. Predecessors may be shared between
// ack paths (a cohort member's own ack and the gathering writer's, for
// instance), so retirement is idempotent: a lock is only retired while
// it is still the table's entry for its ID. Called with res.mu held.
func (s *Server) removePreds(res *resource, l *lock) {
	for _, p := range l.preds {
		if res.granted.get(p.id) != p {
			continue
		}
		res.granted.remove(p)
		s.Stats.Releases.Add(1)
		s.reclaim.deregister(res.id, p.id)
		p.succ, p.bcast = nil, nil
		s.removePreds(res, p)
	}
	l.dropPreds()
}

// dropPreds empties l's predecessor list, its inline slot too: a
// retired lock that still pointed at its predecessor would keep the
// whole chain of earlier locks alive.
func (l *lock) dropPreds() { l.preds, l.one[0] = nil, nil }

// resolveDelegation confirms delegated lock l server-side, without an
// ack: l becomes a plain granted lock. Called with res.mu held, once
// none of l's predecessors is left in the table.
func (s *Server) resolveDelegation(res *resource, l *lock) {
	l.delegated = false
	l.dropPreds()
	s.reclaim.deregister(res.id, l.id)
}

// forceResolve resolves delegated lock l without its predecessors'
// cooperation — the reclaimer's force step, a slot freeze, or the
// release of a writer that owes l's handback: the predecessors are
// retired, l becomes a plain granted lock, and the server's activation
// is appended to acts, to be sent once res.mu drops, so l's owner stops
// waiting for a transfer that will never arrive. Called with res.mu
// held.
func (s *Server) forceResolve(res *resource, l *lock, acts []activationMsg) []activationMsg {
	s.removePreds(res, l)
	s.resolveDelegation(res, l)
	s.Stats.HandoffReclaims.Add(1)
	return append(acts, activationMsg{client: l.client, res: res.id, id: l.id})
}

// sendActivation delivers a server-sent activation, or the part the
// server covers for a predecessor that released, through the notifier.
// Duplicates (server-sent racing the peer transfer) are idempotent
// client-side.
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
	deadline := s.clk.Now().Add(s.policy.ReclaimInterval())
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
	period := max(s.policy.ReclaimInterval()/2, time.Millisecond)
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
			e.deadline = now.Add(s.policy.ReclaimInterval())
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
