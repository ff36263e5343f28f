package dlm

import (
	"slices"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
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

// Lease names one pre-installed delegated read lease of a handback.
type Lease struct {
	Owner  ClientID
	LockID LockID
	SN     extent.SN
}

// BroadcastStamp is the fan-out payload pre-armed in a gather grant
// and carried by the writer's transfer to the lead: the ordered reader
// cohort (entry 0 is the lead), the common lease range and mode, and
// the propagation-tree fanout bound. Every lease shares one SN — reads
// do not advance the extent-cache clock — which is strictly greater
// than the gathering writer's SN, so extents written under the writer's
// lock order correctly before reads under the leases.
type BroadcastStamp struct {
	Mode   Mode
	Range  extent.Extent
	Fanout int
	Leases []Lease
}

// BroadcastToWire converts a broadcast payload to its wire form (nil
// maps to nil).
func BroadcastToWire(b *BroadcastStamp) *wire.BroadcastGrant {
	if b == nil {
		return nil
	}
	g := &wire.BroadcastGrant{
		Mode:   uint8(b.Mode),
		Range:  b.Range,
		Fanout: uint8(b.Fanout),
		Leases: make([]wire.LeaseEntry, 0, len(b.Leases)),
	}
	for _, l := range b.Leases {
		g.Leases = append(g.Leases, wire.LeaseEntry{
			Owner: uint32(l.Owner), LockID: uint64(l.LockID), SN: uint64(l.SN),
		})
	}
	return g
}

// BroadcastFromWire converts a wire broadcast payload to its dlm form
// (nil maps to nil).
func BroadcastFromWire(g *wire.BroadcastGrant) *BroadcastStamp {
	if g == nil {
		return nil
	}
	b := &BroadcastStamp{
		Mode:   Mode(g.Mode),
		Range:  g.Range,
		Fanout: int(g.Fanout),
		Leases: make([]Lease, 0, len(g.Leases)),
	}
	for _, l := range g.Leases {
		b.Leases = append(b.Leases, Lease{
			Owner: ClientID(l.Owner), LockID: LockID(l.LockID), SN: extent.SN(l.SN),
		})
	}
	return b
}

// leaseFanout bounds the propagation tree's fan-out (children per
// node). A server stamps it into every BroadcastStamp, so a client
// follows the fan-out of the server that formed the cohort.
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
		fx.revs = append(fx.revs, stampedRevocation(res, c, wl))
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
