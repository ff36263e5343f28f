// Package seqdlm is the public API of the SeqDLM lock manager itself,
// independent of ccPFS — the paper's future-work direction of using
// SeqDLM as a general distributed coherent-cache layer. It re-exports
// the engine, the client state machine, and the policies so another
// system can embed them with its own transport and data path:
//
//   - run a Server wherever you shard your resources;
//   - implement Notifier to deliver the server's callbacks to holders:
//     RevokeBatch carries every revocation pending for one client (call
//     Server.RevokeAck for each when the holder acknowledges), and
//     Handoff and SolicitAck serve the client-to-client handoff path.
//     With Policy.Handoff and Policy.ReaderFanout off — every stock
//     policy — only revocations are sent, and NotifierFunc adapts a
//     per-revocation function;
//   - implement Flusher with your write-back path: it is invoked by the
//     client's cancel path with (resource, range, max SN) and must make
//     that data durable before returning;
//   - tag your cached data with Handle.SN and keep the newest SN per
//     byte range on the storage side (Tree, the extent cache of ccPFS's
//     data servers, does exactly this: the larger SN wins every byte) so
//     out-of-order write-back stays correct under early grant.
//
// TestEmbedSeqDLMAsCoherentCacheLayer in seqdlm_test.go builds a small
// coherent key-value cache this way.
package seqdlm

import (
	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
)

// Core types, re-exported.
type (
	// Server is the lock-server engine (one per resource shard).
	Server = dlm.Server
	// LockClient is the client half: grant cache, revocation handling,
	// and the downgrade→flush→release cancel path.
	LockClient = dlm.LockClient
	// Handle is a client's reference to a granted lock.
	Handle = dlm.Handle
	// Policy selects SeqDLM or one of the paper's baselines.
	Policy = dlm.Policy
	// Mode is a lock mode.
	Mode = dlm.Mode
	// State is GRANTED or CANCELING.
	State = dlm.State
	// Request, Grant, Revocation are the server's protocol types.
	Request = dlm.Request
	// Grant is the server's reply to a Request.
	Grant = dlm.Grant
	// Revocation identifies a callback to a lock holder.
	Revocation = dlm.Revocation
	// Notifier delivers the server's callbacks: batched revocations,
	// handoff activations and ack solicitations.
	Notifier = dlm.Notifier
	// NotifierFunc adapts a per-revocation function to Notifier, for
	// engines with handoff and reader fan-out off.
	NotifierFunc = dlm.NotifierFunc
	// ServerConn is how a LockClient reaches a Server.
	ServerConn = dlm.ServerConn
	// Flusher is the client's write-back hook.
	Flusher = dlm.Flusher
	// FlusherFunc adapts a function to Flusher.
	FlusherFunc = dlm.FlusherFunc
	// ResourceID, ClientID, LockID identify resources, clients, locks.
	ResourceID = dlm.ResourceID
	// ClientID identifies a lock client.
	ClientID = dlm.ClientID
	// LockID identifies a granted lock within one server.
	LockID = dlm.LockID
	// LockRecord is the recovery export format (§IV-C2).
	LockRecord = dlm.LockRecord
	// Stats and Snapshot expose protocol counters.
	Stats = dlm.Stats
	// Snapshot is a plain-value copy of Stats.
	Snapshot = dlm.Snapshot

	// Extent is a half-open byte range; SN a sequence number; SNExtent
	// an SN-tagged range; Tree the newest-SN interval structure for the
	// storage side.
	Extent = extent.Extent
	// SN is a lock-resource sequence number.
	SN = extent.SN
	// SNExtent is an SN-tagged extent.
	SNExtent = extent.SNExtent
	// Tree is the storage-side newest-SN interval structure.
	Tree = extent.Tree
)

// Lock modes (Table II of the paper) and states.
const (
	PR  = dlm.PR
	NBW = dlm.NBW
	BW  = dlm.BW
	PW  = dlm.PW

	Granted   = dlm.Granted
	Canceling = dlm.Canceling
)

// Inf is the EOF sentinel for lock range ends.
const Inf = extent.Inf

// NewServer returns a lock-server engine with the given policy.
func NewServer(policy Policy, notifier Notifier) *Server {
	return dlm.NewServer(policy, notifier)
}

// NewLockClient returns the client state machine. router maps a
// resource to the connection of the server owning it; flusher is the
// write-back path used at cancel time.
func NewLockClient(id ClientID, policy Policy, router func(ResourceID) ServerConn, flusher Flusher) *LockClient {
	return dlm.NewLockClient(id, policy, router, flusher)
}

// SeqDLM returns the paper's proposed policy (early grant, early
// revocation, automatic conversion).
func SeqDLM() Policy { return dlm.SeqDLM() }

// Basic returns the traditional DLM baseline.
func Basic() Policy { return dlm.Basic() }

// Lustre returns the Lustre-special baseline.
func Lustre() Policy { return dlm.Lustre() }

// Datatype returns the datatype-locking baseline.
func Datatype() Policy { return dlm.Datatype() }

// SelectMode applies the deterministic mode-selection rules of Fig. 10.
func SelectMode(isRead, implicitRead, multiResource bool) Mode {
	return dlm.SelectMode(isRead, implicitRead, multiResource)
}

// NewExtent returns the extent [start, end).
func NewExtent(start, end int64) Extent { return extent.New(start, end) }

// Span returns the extent starting at off with length n.
func Span(off, n int64) Extent { return extent.Span(off, n) }
