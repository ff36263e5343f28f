// Package dlm implements the paper's primary contribution: a
// sequencer-based distributed lock manager (SeqDLM) with early grant,
// early revocation, the four-mode lock semantics of §III-C, and the
// automatic lock conversion of §III-D — together with the three
// traditional baselines the paper evaluates against (DLM-basic,
// DLM-Lustre, DLM-datatype), all implemented inside one lock-server
// engine selected by Policy, exactly as the authors did inside ccPFS.
package dlm

import "fmt"

// Mode is a lock mode. SeqDLM keeps the traditional read lock (PR) and
// refines the traditional write lock into three modes (NBW, BW, PW);
// the traditional baselines lock with PR and PW alone (Policy.MapMode).
// The wire carries a mode as its value; 5 and 6 stay unassigned.
type Mode uint8

// Lock modes.
const (
	// ModeNone is the zero value; never granted.
	ModeNone Mode = iota
	// PR (protective read): holders may read the resource concurrently —
	// the traditional read lock.
	PR
	// NBW (non-blocking write): write-only access without the blocking
	// feature; the mode that unlocks early grant and early revocation.
	NBW
	// BW (blocking write): write-only access that keeps the blocking
	// feature, used for atomic writes across multiple resources.
	BW
	// PW (protective write): full read/write access with traditional
	// write-lock semantics, used for atomic read-update operations.
	PW
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case PR:
		return "PR"
	case NBW:
		return "NBW"
	case BW:
		return "BW"
	case PW:
		return "PW"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// IsWrite reports whether the mode permits writes. Write-mode grants
// consume a sequence number.
func (m Mode) IsWrite() bool {
	switch m {
	case NBW, BW, PW:
		return true
	}
	return false
}

// CanRead reports whether the mode permits reads. NBW and BW are
// write-only (§III-C).
func (m Mode) CanRead() bool {
	switch m {
	case PR, PW:
		return true
	}
	return false
}

// Valid reports whether m is a grantable mode.
func (m Mode) Valid() bool { return m >= PR && m <= PW }

// Covers reports whether a cached lock of mode m satisfies an operation
// that needs mode need. It follows the severity ordering of Fig. 9: a
// more restrictive mode can be used in more scenarios.
func (m Mode) Covers(need Mode) bool {
	switch m {
	case PW:
		return need == PR || need == NBW || need == BW || need == PW
	case BW:
		return need == NBW || need == BW
	case NBW:
		return need == NBW
	case PR:
		return need == PR
	}
	return false
}

// Upgrade returns the least restrictive mode that covers both a and b —
// the target of lock upgrading in automatic lock conversion (Fig. 9).
func Upgrade(a, b Mode) Mode {
	if a.Covers(b) {
		return a
	}
	if b.Covers(a) {
		return b
	}
	// Mixed read/write (PR with NBW or BW) upgrades to PW.
	return PW
}

// State is a granted lock's state. A lock is GRANTED by default and
// enters CANCELING when its revocation reply has been processed by the
// server or it was granted with early revocation (§III-A2).
type State uint8

// Lock states.
const (
	// Granted means the lock may be cached and reused by the client.
	Granted State = 0
	// Canceling means the lock must not be reused and is to be canceled
	// after use.
	Canceling State = 1
)

func (s State) String() string {
	if s == Canceling {
		return "CANCELING"
	}
	return "GRANTED"
}

// Compatible implements the lock compatibility matrix. For SeqDLM modes
// it is Table II of the paper: the only state-dependent (N/Y) cells are
// a new NBW or BW request against a granted NBW lock, which becomes
// compatible once the granted lock is CANCELING — that transition *is*
// early grant. PR and PW alone are the traditional matrix, where
// conflicts resolve only on full release.
func Compatible(req Mode, granted Mode, gstate State) bool {
	switch req {
	case PR:
		return granted == PR
	case NBW, BW:
		return granted == NBW && gstate == Canceling
	}
	return false
}

// Downgrade returns the mode a canceling lock converts to before data
// flushing (§III-D2), or ModeNone when no downgrade applies. BW
// downgrades to NBW; PW downgrades to PR when the holder only read under
// it (wrote == false) and to NBW otherwise.
func Downgrade(m Mode, wrote bool) Mode {
	switch m {
	case BW:
		return NBW
	case PW:
		if wrote {
			return NBW
		}
		return PR
	}
	return ModeNone
}

// SelectMode implements the deterministic lock mode selection rules of
// Fig. 10 for an IO operation: PR for reads; PW for writes with implicit
// reads (append, read-modify-write); BW for writes that must hold
// multiple locks simultaneously (atomic writes spanning stripes); NBW
// otherwise.
func SelectMode(isRead, implicitRead, multiResource bool) Mode {
	if isRead {
		return PR
	}
	if implicitRead {
		return PW
	}
	if multiResource {
		return BW
	}
	return NBW
}
