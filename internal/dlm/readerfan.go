package dlm

import (
	"ccpfs/internal/extent"
)

// Reader fan-out (DESIGN.md §14). Client-to-client handoff (§13) cuts
// the server out of stable single-waiter write chains; this file
// extends it to reader cohorts. When a writer's revocation is owed to a
// run of k compatible shared-mode waiters, the server installs k
// delegated leases in one queue pass (one shared SN, stamped in queue
// order) and stamps the writer's revocation with a broadcast grant: the
// holder transfers to a lead reader, which propagates the remaining
// leases peer-to-peer down a bounded-fanout tree. The reverse edge —
// a writer displacing a delegated reader cohort — gathers the cohort's
// transfers directly and carries a pre-armed handback so the next
// fan-out needs no server round trip either. In steady state an entire
// write-then-fan-out cycle costs the server one lock RPC regardless of
// reader count.

// Lease names one pre-installed delegated read lease of a broadcast.
type Lease struct {
	Owner  ClientID
	LockID LockID
	SN     extent.SN
}

// BroadcastStamp is the fan-out payload attached to a handoff stamp or
// pre-armed in a gather grant: the ordered reader cohort (entry 0 is
// the lead), the common lease range and mode, and the propagation-tree
// fanout bound. Every lease shares one SN — reads do not advance the
// extent-cache clock — which is strictly greater than the displaced
// writer's SN, so cached extents written under the old lock order
// correctly before reads under the leases.
type BroadcastStamp struct {
	Mode   Mode
	Range  extent.Extent
	Fanout int
	Leases []Lease
}

// leaseFanout bounds the propagation tree's fan-out (children per
// node). A server stamps it into every BroadcastStamp, so a client
// follows the fan-out of the server that formed the cohort.
const leaseFanout = 2

// stampBroadcast attempts to retire a run of compatible shared-mode
// waiters headed by w, all of whose only conflict is the single lock c,
// by delegating c to the whole run at once: one delegated lease per
// member is installed under res.mu (queue order, one shared SN), the
// members' grant replies are marked Delegated, and the revocation
// appended for c carries a broadcast stamp naming the full cohort.
// Runs of one fall through to the plain single-successor stamp. Called
// from tryGrant with res.mu held; reports whether it stamped.
func (s *Server) stampBroadcast(res *resource, w *waiter, mode Mode, c *lock, fx *effects) bool {
	// The displaced lock must be a quiet writer, and the head waiter a
	// plain-range shared request.
	if !s.fanOn || mode.IsWrite() || !mode.CanRead() || !c.mode.IsWrite() ||
		!quiet(c, w.req.Client) || len(w.req.Extents) > 0 {
		return false
	}

	// Collect the run: w plus the immediately following live waiters
	// with the same shared mode whose only conflict is c. The run stops
	// at the first non-qualifying live waiter so FIFO fairness is
	// preserved — nothing is granted past a blocked request.
	run := []*waiter{w}
	idx := -1
	for i, q := range res.queue {
		if q == w {
			idx = i
			break
		}
	}
	for _, q := range res.queue[idx+1:] {
		if q.done {
			continue
		}
		if q.req.Mode != mode || len(q.req.Extents) > 0 || q.req.Client == c.client {
			break
		}
		cs := s.conflicts(res, q, q.req.Mode)
		if len(cs) != 1 || cs[0] != c {
			break
		}
		run = append(run, q)
	}
	if len(run) < 2 {
		return false
	}

	// From here on c behaves as CANCELING; the transfer's
	// flush-before-handoff obligation plus SN ordering make the lease
	// overlap as safe as an early grant.
	c.handedOff, c.revokeSent = true, true

	// One common lease range: the union of the members' requests,
	// expanded once. Any granted lock overlapping the union overlaps
	// some member's range, and each member's only conflict is c, so the
	// union at the shared mode conflicts with nothing but c. Shared
	// leases leave the sequencer alone: the cohort shares one SN.
	rng := w.req.Range
	for _, q := range run[1:] {
		rng = rng.Union(q.req.Range)
	}
	rng.End = s.expandEnd(res, w, mode, rng)
	leases := make([]*lock, 0, len(run))
	for _, q := range run {
		l := s.install(res, &lock{client: q.req.Client, mode: mode, rng: rng, delegated: true})
		leases = append(leases, l)
		s.reclaim.register(s, res, c, l)
		s.Stats.LeaseGrants.Add(1)
		s.admit(res, q, Grant{LockID: l.id, Mode: mode, Range: rng, SN: l.sn, Delegated: true}, fx)
	}
	leases[0].pred = c
	c.succ = leases[0]
	c.bcast = leases
	fx.revs = append(fx.revs, stampedRevocation(res, c, leases[0], s.broadcastStamp(mode, rng, leases)))
	s.Stats.Handoffs.Add(1)
	s.Stats.Broadcasts.Add(1)
	return true
}

// stampGather attempts to retire a write waiter whose conflicts are
// exactly a delegated-or-held reader cohort by gathering the cohort's
// transfers directly: a delegated write lock is installed that collects
// one client-to-client part per cohort member, each member's revocation
// is stamped toward it, and the grant pre-arms the NEXT fan-out — a
// fresh set of delegated leases for the same cohort that the writer
// owes a broadcast transfer to when it finishes. Called from tryGrant
// with res.mu held; reports whether it stamped.
func (s *Server) stampGather(res *resource, w *waiter, mode Mode, cohort []*lock, fx *effects) bool {
	if !s.fanOn || !mode.IsWrite() || len(w.req.Extents) > 0 {
		return false
	}
	// Every conflict must be a quiet shared lock of one uniform mode.
	// Delegated (not-yet-acked) leases qualify: their holders receive
	// the stamped revocation whenever the lease arrives, and their
	// transfers complete the gather just the same.
	shared := cohort[0].mode
	for _, c := range cohort {
		if c.mode.IsWrite() || c.mode != shared || !quiet(c, w.req.Client) {
			return false
		}
	}
	for _, c := range cohort {
		c.handedOff, c.revokeSent = true, true
	}

	rng := w.req.Range
	rng.End = s.expandEnd(res, w, mode, rng)
	wl := s.install(res, &lock{client: w.req.Client, mode: mode, rng: rng, delegated: true, preds: cohort, gatherLeft: len(cohort)})
	for _, c := range cohort {
		c.succ = wl
	}
	s.reclaim.register(s, res, cohort[0], wl)

	// Pre-arm the handback: one delegated lease per cohort member at
	// the post-write SN. The writer transfers to the lead when it
	// finishes; until then the reclaimer treats these as provider-live
	// and only nudges.
	leases := make([]*lock, 0, len(cohort))
	for _, c := range cohort {
		l := s.install(res, &lock{client: c.client, mode: shared, rng: rng, delegated: true})
		leases = append(leases, l)
		s.reclaim.register(s, res, wl, l)
		s.Stats.LeaseGrants.Add(1)
	}
	leases[0].pred = wl
	wl.succ = leases[0]
	wl.bcast = leases

	for _, c := range cohort {
		fx.revs = append(fx.revs, stampedRevocation(res, c, wl, nil))
	}
	s.Stats.Handoffs.Add(1)
	s.Stats.Gathers.Add(1)
	s.admit(res, w, Grant{LockID: wl.id, Mode: mode, Range: rng, SN: wl.sn, Delegated: true,
		GatherParts: len(cohort), HandBack: s.broadcastStamp(shared, rng, leases)}, fx)
	return true
}

// broadcastStamp builds the wire-facing cohort description for a set of
// installed leases.
func (s *Server) broadcastStamp(mode Mode, rng extent.Extent, leases []*lock) *BroadcastStamp {
	b := &BroadcastStamp{
		Mode:   mode,
		Range:  rng,
		Fanout: leaseFanout,
		Leases: make([]Lease, 0, len(leases)),
	}
	for _, l := range leases {
		b.Leases = append(b.Leases, Lease{Owner: l.client, LockID: l.id, SN: l.sn})
	}
	return b
}
