package dlm

import (
	"sync/atomic"
	"time"

	"ccpfs/internal/obs"
)

// Stats holds protocol counters for a lock server. The wait-time
// attribution implements the Fig. 17 breakdown: for every grant that had
// to resolve conflicts, the time from enqueue until every conflicting
// lock reached CANCELING is revocation wait (part ① of the paper's
// breakdown), and the remainder until grant is cancel wait — data
// flushing plus lock release (part ②). Everything else in an operation
// (lock request, grant reply, cache copy) is part ③.
//
// The wait components are full log-bucketed histograms (obs.Histogram)
// rather than raw nanosecond sums, so percentiles are available through
// a registry while Snapshot still reports the sums the experiment
// tables were built on. Recording stays allocation-free: one histogram
// record is a few atomic adds on preallocated buckets.
type Stats struct {
	Grants      atomic.Int64
	Releases    atomic.Int64
	Revocations atomic.Int64
	// RevokeBatches counts batched notifier deliveries: Revocations /
	// RevokeBatches is the per-client coalescing factor the revoker
	// achieved (DESIGN.md §9). Derive it via Snapshot.CoalescingFactor,
	// which guards the zero-batch case.
	RevokeBatches    atomic.Int64
	EarlyGrants      atomic.Int64
	EarlyRevocations atomic.Int64
	Upgrades         atomic.Int64
	Downgrades       atomic.Int64

	// LockOps counts client-initiated lock-service operations (Lock,
	// Release, Downgrade, standalone HandoffAck) — the server-RPC cost
	// of the locking protocol. Piggybacked handoff acks ride inside a
	// Lock and are not counted separately, so LockOps per exchange is
	// exactly the round-trip metric the handoff fast path optimizes:
	// ~2 per ping-pong exchange on the server path, ~1 with handoff.
	LockOps atomic.Int64
	// Handoff delegation counters (DESIGN.md §13): stamps issued,
	// delegations confirmed by the new owner, and delegations the
	// server force-resolved (forceResolve: the reclaimer's timeout, a
	// slot freeze, or a writer that released instead of handing back;
	// Restore counts the delegations it resolves too).
	Handoffs        atomic.Int64
	HandoffAcks     atomic.Int64
	HandoffReclaims atomic.Int64
	// AckSolicits counts delegation confirmations the server asked for
	// because a waiter was blocked on them (solicitAck); zero while
	// every ack piggybacks.
	AckSolicits atomic.Int64

	// Reader fan-out counters (DESIGN.md §14): scan passes that granted
	// a run of ≥2 shared-mode waiters in one hold of the resource lock
	// (and the grants those runs produced), cohort gathers stamped
	// toward writers, and the delegated read leases their grants
	// pre-armed for the handback.
	FanRuns     atomic.Int64
	FanGrants   atomic.Int64
	Gathers     atomic.Int64
	LeaseGrants atomic.Int64

	// GrantWaitHist records enqueue→grant for every grant;
	// RevocationWaitHist and CancelWaitHist record the ①/② split for
	// grants that resolved conflicts. Early grants that never saw all
	// conflicts reach CANCELING contribute to RevocationWaitHist only —
	// no zero-valued cancel-wait sample (see Server.admit).
	GrantWaitHist      obs.Histogram
	RevocationWaitHist obs.Histogram
	CancelWaitHist     obs.Histogram

	// RevokeQueue is the instantaneous backlog of the revoker's
	// per-client deliveries: the number of revocations enqueued for
	// delivery but not yet handed to the notifier.
	RevokeQueue obs.Gauge

	// Partition-mastership instruments (partition.go): the number of
	// slots this engine currently masters and the slots it has handed
	// off / taken in through online migration. Zero SlotsOwned on an
	// unpartitioned engine means "all of them" — the gauge is only
	// written once a slot view is installed.
	SlotsOwned        obs.Gauge
	SlotMigrationsIn  atomic.Int64
	SlotMigrationsOut atomic.Int64
}

// Register exposes the server's instruments in reg under dlm.*.
func (s *Stats) Register(reg *obs.Registry) {
	reg.Func("dlm.grants", s.Grants.Load)
	reg.Func("dlm.releases", s.Releases.Load)
	reg.Func("dlm.revocations", s.Revocations.Load)
	reg.Func("dlm.revoke_batches", s.RevokeBatches.Load)
	reg.Func("dlm.early_grants", s.EarlyGrants.Load)
	reg.Func("dlm.early_revocations", s.EarlyRevocations.Load)
	reg.Func("dlm.upgrades", s.Upgrades.Load)
	reg.Func("dlm.downgrades", s.Downgrades.Load)
	reg.Func("dlm.lock_ops", s.LockOps.Load)
	reg.Func("dlm.handoffs", s.Handoffs.Load)
	reg.Func("dlm.handoff_acks", s.HandoffAcks.Load)
	reg.Func("dlm.handoff_reclaims", s.HandoffReclaims.Load)
	reg.Func("dlm.ack_solicits", s.AckSolicits.Load)
	reg.Func("dlm.fan_runs", s.FanRuns.Load)
	reg.Func("dlm.fan_grants", s.FanGrants.Load)
	reg.Func("dlm.gathers", s.Gathers.Load)
	reg.Func("dlm.lease_grants", s.LeaseGrants.Load)
	reg.RegisterHistogram("dlm.grant_wait", &s.GrantWaitHist)
	reg.RegisterHistogram("dlm.revocation_wait", &s.RevocationWaitHist)
	reg.RegisterHistogram("dlm.cancel_wait", &s.CancelWaitHist)
	reg.RegisterGauge("dlm.revoke_queue", &s.RevokeQueue)
	reg.RegisterGauge("dlm.slots_owned", &s.SlotsOwned)
	reg.Func("dlm.slot_migrations_in", s.SlotMigrationsIn.Load)
	reg.Func("dlm.slot_migrations_out", s.SlotMigrationsOut.Load)
}

// WaitHists returns point-in-time snapshots of the three wait
// histograms. Cross-server aggregation merges these (obs.HistSnapshot
// .Merge) instead of summing Snapshot's scalar fields, so percentiles
// survive aggregation — summing two p99s is meaningless, merging two
// bucket vectors is exact.
func (s *Stats) WaitHists() (grant, revocation, cancel obs.HistSnapshot) {
	return s.GrantWaitHist.Snapshot(), s.RevocationWaitHist.Snapshot(), s.CancelWaitHist.Snapshot()
}

// Snapshot is a plain-value copy of Stats.
type Snapshot struct {
	Grants           int64
	Releases         int64
	Revocations      int64
	RevokeBatches    int64
	EarlyGrants      int64
	EarlyRevocations int64
	Upgrades         int64
	Downgrades       int64
	LockOps          int64
	Handoffs         int64
	HandoffAcks      int64
	HandoffReclaims  int64
	AckSolicits      int64
	FanRuns          int64
	FanGrants        int64
	// Broadcasts is always 0: every reader cohort now forms through a
	// gather's pre-armed handback. The field stays for the reports that
	// print it.
	Broadcasts  int64
	Gathers     int64
	LeaseGrants int64

	GrantWait      time.Duration
	RevocationWait time.Duration
	CancelWait     time.Duration
}

// Snapshot returns a consistent-enough copy for reporting. The wait
// fields are the histogram sums, preserving the pre-histogram schema.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Grants:           s.Grants.Load(),
		Releases:         s.Releases.Load(),
		Revocations:      s.Revocations.Load(),
		RevokeBatches:    s.RevokeBatches.Load(),
		EarlyGrants:      s.EarlyGrants.Load(),
		EarlyRevocations: s.EarlyRevocations.Load(),
		Upgrades:         s.Upgrades.Load(),
		Downgrades:       s.Downgrades.Load(),
		LockOps:          s.LockOps.Load(),
		Handoffs:         s.Handoffs.Load(),
		HandoffAcks:      s.HandoffAcks.Load(),
		HandoffReclaims:  s.HandoffReclaims.Load(),
		AckSolicits:      s.AckSolicits.Load(),
		FanRuns:          s.FanRuns.Load(),
		FanGrants:        s.FanGrants.Load(),
		Gathers:          s.Gathers.Load(),
		LeaseGrants:      s.LeaseGrants.Load(),
		GrantWait:        time.Duration(s.GrantWaitHist.Sum()),
		RevocationWait:   time.Duration(s.RevocationWaitHist.Sum()),
		CancelWait:       time.Duration(s.CancelWaitHist.Sum()),
	}
}

// Sub returns the difference s - o, for windowed measurements.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Grants:           s.Grants - o.Grants,
		Releases:         s.Releases - o.Releases,
		Revocations:      s.Revocations - o.Revocations,
		RevokeBatches:    s.RevokeBatches - o.RevokeBatches,
		EarlyGrants:      s.EarlyGrants - o.EarlyGrants,
		EarlyRevocations: s.EarlyRevocations - o.EarlyRevocations,
		Upgrades:         s.Upgrades - o.Upgrades,
		Downgrades:       s.Downgrades - o.Downgrades,
		LockOps:          s.LockOps - o.LockOps,
		Handoffs:         s.Handoffs - o.Handoffs,
		HandoffAcks:      s.HandoffAcks - o.HandoffAcks,
		HandoffReclaims:  s.HandoffReclaims - o.HandoffReclaims,
		AckSolicits:      s.AckSolicits - o.AckSolicits,
		FanRuns:          s.FanRuns - o.FanRuns,
		FanGrants:        s.FanGrants - o.FanGrants,
		Gathers:          s.Gathers - o.Gathers,
		LeaseGrants:      s.LeaseGrants - o.LeaseGrants,
		GrantWait:        s.GrantWait - o.GrantWait,
		RevocationWait:   s.RevocationWait - o.RevocationWait,
		CancelWait:       s.CancelWait - o.CancelWait,
	}
}

// CoalescingFactor returns the revocations-per-delivery ratio achieved
// by the revoker's per-client deliveries, or 0 before any batch has been delivered — the
// guarded form of Revocations / RevokeBatches.
func (s Snapshot) CoalescingFactor() float64 {
	if s.RevokeBatches <= 0 {
		return 0
	}
	return float64(s.Revocations) / float64(s.RevokeBatches)
}
