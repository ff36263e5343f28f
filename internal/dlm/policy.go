package dlm

import (
	"fmt"
	"time"
)

// ExpandRule selects how a lock server expands the range of a lock it is
// about to grant (lock range expanding, §II-A). Only the end of a range
// is ever expanded, per the Lustre convention the paper adheres to.
type ExpandRule uint8

// Expansion rules.
const (
	// ExpandGreedy expands the end to the largest compatible address
	// (typically EOF) — SeqDLM and DLM-basic.
	ExpandGreedy ExpandRule = iota
	// ExpandLustre expands greedily until the resource has granted more
	// than LustreLockThreshold locks, then caps expansion at
	// LustreCapBytes past the requested start — the DLM-Lustre
	// optimization that reduces conflicts under high contention.
	ExpandLustre
	// ExpandNone grants exactly the requested range — DLM-datatype.
	ExpandNone
)

// Policy selects which DLM the lock-server engine implements. The paper
// implements all four inside ccPFS so that every comparison isolates the
// lock protocol; this reproduction does the same.
type Policy struct {
	// Name identifies the policy in logs and benchmark output.
	Name string
	// EarlyGrant enables granting a conflicting write lock as soon as
	// the previous holder's lock is CANCELING (§III-A1). It is implied
	// by the SeqDLM LCM; disabling it forces normal grant even for
	// NBW/BW-vs-CANCELING-NBW conflicts (used in ablations).
	EarlyGrant bool
	// EarlyRevocation enables piggybacking revocation on the grant reply
	// when the granted lock already conflicts with a queued request and
	// its range could not be expanded (§III-A2).
	EarlyRevocation bool
	// Conversion enables automatic lock conversion: server-side
	// upgrading on same-client conflicts and client-side downgrading at
	// cancel time (§III-D).
	Conversion bool
	// Legacy restricts the mode set to LR/LW (traditional baselines).
	Legacy bool
	// Expand selects the range expansion rule.
	Expand ExpandRule
	// LustreCapBytes is the expansion cap for ExpandLustre (32 MB in the
	// paper). Scaled-down clusters scale it together with file sizes.
	LustreCapBytes int64
	// LustreLockThreshold is the grant count beyond which ExpandLustre
	// stops greedy expansion (32 in the paper).
	LustreLockThreshold int
	// CacheLocks controls whether clients cache grants for reuse.
	// DLM-datatype acquires exact-range locks per atomic operation and
	// releases them after use.
	CacheLocks bool
	// Handoff enables client-to-client lock handoff (DESIGN.md §13):
	// when a revocation's conflict queue is headed by a single waiter,
	// the server stamps the revoke with a delegation grant and the
	// holder transfers the lock directly to the next owner, cutting the
	// server out of stable conflict patterns. Off by default — the
	// revoke path is then byte-identical to the pre-handoff engine.
	Handoff bool
	// ReaderFanout extends handoff to reader cohorts (DESIGN.md §14): a
	// writer whose conflicts are exactly a reader cohort gathers the
	// cohort's transfers directly, and its grant pre-arms a handback —
	// one delegated read lease per cohort member — that the writer
	// transfers to a lead reader when it finishes; the lead propagates
	// the leases peer-to-peer down a bounded-fanout tree. Implies the
	// handoff transport. Off by default — the grant/revoke path is then
	// byte-identical to the single-successor handoff engine.
	ReaderFanout bool
	// HandoffReclaimInterval is the deadline after which the server
	// force-resolves an unacked delegation (nudging first at half the
	// interval). Zero means DefaultHandoffTimeout (250 ms); tests and
	// experiments tighten it instead of sleeping real time.
	HandoffReclaimInterval time.Duration
}

// ReclaimInterval returns the effective HandoffReclaimInterval.
func (p Policy) ReclaimInterval() time.Duration {
	if p.HandoffReclaimInterval > 0 {
		return p.HandoffReclaimInterval
	}
	return DefaultHandoffTimeout
}

// SeqDLM returns the paper's proposed policy.
func SeqDLM() Policy {
	return Policy{
		Name:            "SeqDLM",
		EarlyGrant:      true,
		EarlyRevocation: true,
		Conversion:      true,
		Expand:          ExpandGreedy,
		CacheLocks:      true,
	}
}

// Basic returns the general traditional DLM of §II-A: normal grant only,
// greedy range expansion, legacy modes.
func Basic() Policy {
	return Policy{
		Name:       "DLM-basic",
		Legacy:     true,
		Expand:     ExpandGreedy,
		CacheLocks: true,
	}
}

// Lustre returns the Lustre-special DLM: traditional semantics with
// expansion capped at 32 MB once more than 32 locks have been granted.
func Lustre() Policy {
	return Policy{
		Name:                "DLM-Lustre",
		Legacy:              true,
		Expand:              ExpandLustre,
		LustreCapBytes:      32 << 20,
		LustreLockThreshold: 32,
		CacheLocks:          true,
	}
}

// Datatype returns the datatype-locking baseline (Ching et al.):
// non-contiguous lock ranges described exactly, no expansion, locks
// released after each atomic operation.
func Datatype() Policy {
	return Policy{
		Name:   "DLM-datatype",
		Legacy: true,
		Expand: ExpandNone,
	}
}

// PolicyByName returns the stock policy a command-line flag names:
// seqdlm, basic, lustre or datatype.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "seqdlm":
		return SeqDLM(), nil
	case "basic":
		return Basic(), nil
	case "lustre":
		return Lustre(), nil
	case "datatype":
		return Datatype(), nil
	}
	return Policy{}, fmt.Errorf("unknown policy %q (seqdlm|basic|lustre|datatype)", name)
}

// MapMode converts the mode an operation selected (via SelectMode) to
// the mode this policy grants.
func (p Policy) MapMode(m Mode) Mode {
	if p.Legacy {
		return LegacyMode(m)
	}
	return m
}
