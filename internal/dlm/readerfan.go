package dlm

import (
	"slices"
)

// Reader fan-out (DESIGN.md §14). Client-to-client handoff (§13) cuts
// the server out of stable single-waiter write chains; this file
// extends it to reader cohorts. A writer displacing a delegated or
// held reader cohort gathers the cohort's transfers directly, and its
// grant carries a pre-armed handback: one fresh delegated lease per
// cohort member (one shared SN), which the writer owes the cohort when
// it finishes. Its transfer goes to a lead reader, which propagates
// the remaining leases peer-to-peer down a bounded-fanout tree. A
// cohort first forms on the server path (a batched fan run of shared
// grants); in steady state an entire write-then-fan-out cycle costs
// the server one lock RPC regardless of reader count.

// leaseFanout bounds the propagation tree's fan-out (children per
// node). A server stamps it into every handback, so a client follows
// the fan-out of the server that formed the cohort.
const leaseFanout = 2

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
	wl := s.install(res, &lock{client: w.req.Client, mode: mode, rng: rng, delegated: true, preds: slices.Clone(cohort), gatherLeft: len(cohort)})
	for _, c := range cohort {
		c.succ = wl
	}
	s.reclaim.register(s, res, cohort[0], wl)

	// Pre-arm the handback: one delegated lease per cohort member at
	// the post-write SN. The writer transfers to the lead when it
	// finishes; until then the reclaimer treats these as provider-live
	// and only nudges. Every lease shares one SN — reads do not advance
	// the extent-cache clock — above the writer's, so extents written
	// under the writer's lock order before reads under the leases.
	hb := newStamp(shared, true, len(cohort))
	hb.Range, hb.Fanout = rng, leaseFanout
	leases := make([]*lock, 0, len(cohort))
	for _, c := range cohort {
		l := s.install(res, &lock{client: c.client, mode: shared, rng: rng, delegated: true})
		leases = append(leases, l)
		hb.Leases = append(hb.Leases, Lease{Owner: l.client, LockID: l.id, SN: l.sn})
		s.reclaim.register(s, res, wl, l)
		s.Stats.LeaseGrants.Add(1)
	}
	leases[0].pred = wl
	wl.succ = leases[0]
	wl.bcast = leases

	for _, c := range cohort {
		fx.revs = append(fx.revs, stampedRevocation(res, c, wl))
	}
	s.Stats.Handoffs.Add(1)
	s.Stats.Gathers.Add(1)
	s.admit(res, w, Grant{LockID: wl.id, Mode: mode, Range: rng, SN: wl.sn, Delegated: true,
		GatherParts: len(cohort), HandBack: hb}, fx)
	return true
}
