package dlm

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

// preArm pre-arms the handback of gathering writer wl: one delegated
// lease of mode shared per member of its cohort, which the writer owes
// a broadcast transfer to the lead when it finishes. Until then the
// reclaimer treats these as provider-live and only nudges. Every lease
// shares one SN — reads do not advance the extent-cache clock — above
// the writer's, so extents written under the writer's lock order before
// reads under the leases. Called from stampDelegation with res.mu held.
func (s *Server) preArm(res *resource, wl *lock, shared Mode) *Stamp {
	hb := newStamp(shared, true, len(wl.preds))
	hb.Range, hb.Fanout = wl.rng, leaseFanout
	leases := make([]*lock, 0, len(wl.preds))
	for _, c := range wl.preds {
		l := s.install(res, &lock{client: c.client, mode: shared, rng: wl.rng, delegated: true})
		leases = append(leases, l)
		hb.Leases = append(hb.Leases, Lease{Owner: l.client, LockID: l.id, SN: l.sn})
		s.reclaim.register(s, res, wl, l)
		s.Stats.LeaseGrants.Add(1)
	}
	leases[0].preds = append(leases[0].one[:0], wl)
	wl.succ = leases[0]
	wl.bcast = leases
	return hb
}
