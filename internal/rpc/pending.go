package rpc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the lock-free replacement for the endpoint's old
// mu-guarded pending/active maps. Sharding (PR 2) pushed every other
// hot-path lock off the RPC round trip, but the per-endpoint ep.mu
// remained: registering, completing, and cancelling a call all
// serialized on it, and under b.RunParallel the parallel round trip ran
// *slower* than serial. callTable removes that point entirely — issue,
// complete, and forget are now a handful of CAS/load/store operations
// on disjoint cache lines.
//
// Layout: a fixed power-of-two array of slots, open-addressed by a
// Fibonacci hash of the call ID with a short linear probe window, plus
// a mutex-guarded overflow map for bursts that exceed the window. Call
// IDs come from a monotonically increasing counter and are never
// reused, which is what makes the slot protocol ABA-free.
//
// Slot state machine, entirely on the slot's id word:
//
//	0 ──CAS──▶ slotClaim ──Store(id)──▶ id ──CAS──▶ slotClaim ──Store(0)──▶ 0
//	   (register claims)  (publish)        (take claims)      (recycle)
//
// The val field is written only between a successful claim CAS and the
// publishing store, and read only between a successful take CAS and the
// clearing store — the id word's acquire/release ordering brackets
// every val access, so vals need no atomics of their own. The take CAS
// succeeds for exactly one caller per registered id, which is the
// single-sender guarantee the reply-channel recycling (chanPool)
// depends on.

const (
	// tableBits sizes the slot array: 1<<tableBits slots per table, two
	// tables (pending + active) per endpoint — 1 KiB each at 16 bytes
	// per slot, embedded in the Endpoint. Sized to what an endpoint has
	// in flight: at most FlushWindow bulk calls, one CallBatch of a few
	// revocation chunks, or the lock calls of the goroutines blocked on
	// one server. A simulated cluster builds sixteen endpoints per
	// client, so a table sized for a burst nobody sends was most of a
	// run's set-up cost and live heap; a burst beyond the probe window
	// spills to the overflow map, which is as fast as the mutex-guarded
	// map this table replaced.
	tableBits   = 6
	tableSize   = 1 << tableBits
	tableMask   = tableSize - 1
	probeWindow = 16

	// slotClaim marks a slot mid-transition. Call IDs start at 1 and
	// increment, so neither 0 (free) nor ^0 can collide with a real id.
	slotClaim = ^uint64(0)
)

// tableHash spreads sequential call IDs across the table (Fibonacci
// hashing): adjacent IDs — the common case, one goroutine issuing
// back-to-back calls — land on distant cache lines.
func tableHash(id uint64) uint64 {
	return (id * 0x9E3779B97F4A7C15) >> (64 - tableBits)
}

// callSlot is one open-addressed entry. Slots are deliberately not
// cache-line padded: the hash already scatters concurrent IDs, and
// padding would quadruple the table (simulations run hundreds of
// endpoints).
type callSlot[V any] struct {
	id  atomic.Uint64
	val V
}

// callTable maps in-flight call IDs to per-call state (reply channels
// on the outbound side, cancelable contexts on the inbound side)
// without a lock on any fast path.
type callTable[V any] struct {
	count  atomic.Int64
	closed atomic.Bool
	slots  [tableSize]callSlot[V]

	// Overflow for probe-window misses. Reaching it means >probeWindow
	// in-flight IDs hashed into one neighborhood — rare by construction,
	// so a mutex here costs the fast path nothing.
	mu       sync.Mutex
	overflow map[uint64]V
}

// register publishes v under id. It returns false when the table is
// closed — including when close raced the registration, in which case
// either this call withdrew the entry (as if never registered) or the
// drain took it (and its ErrClosed delivery is in flight); both sides
// of that race agree via the take CAS, so exactly one of them owns the
// entry.
func (t *callTable[V]) register(id uint64, v V) bool {
	if t.closed.Load() {
		return false
	}
	h := tableHash(id)
	for i := uint64(0); i < probeWindow; i++ {
		s := &t.slots[(h+i)&tableMask]
		if s.id.Load() == 0 && s.id.CompareAndSwap(0, slotClaim) {
			s.val = v
			s.id.Store(id)
			t.count.Add(1)
			// Re-check closed now that the entry is visible: the drain
			// sweep may already have passed this slot. If so, withdraw
			// the entry ourselves; losing the withdraw race means the
			// drain owns it and will deliver the close error.
			if t.closed.Load() {
				if _, ok := t.take(id); ok {
					return false
				}
			}
			return true
		}
	}
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return false
	}
	if t.overflow == nil {
		t.overflow = make(map[uint64]V)
	}
	t.overflow[id] = v
	t.count.Add(1)
	t.mu.Unlock()
	return true
}

// take removes and returns the entry for id. Exactly one taker wins per
// registered id (complete, forget, cancel, and drain all funnel through
// the same claim CAS); the rest see ok=false.
func (t *callTable[V]) take(id uint64) (V, bool) {
	var zero V
	h := tableHash(id)
	for i := uint64(0); i < probeWindow; i++ {
		s := &t.slots[(h+i)&tableMask]
		if s.id.Load() == id {
			if s.id.CompareAndSwap(id, slotClaim) {
				v := s.val
				s.val = zero
				s.id.Store(0)
				t.count.Add(-1)
				return v, true
			}
			// Another taker claimed it first. IDs are never reused, so
			// there is no entry left to find.
			return zero, false
		}
	}
	t.mu.Lock()
	if v, ok := t.overflow[id]; ok {
		delete(t.overflow, id)
		t.count.Add(-1)
		t.mu.Unlock()
		return v, true
	}
	t.mu.Unlock()
	return zero, false
}

// length returns the number of registered entries (tests, metrics).
func (t *callTable[V]) length() int {
	// The counter can be transiently negative mid-claim; clamp for
	// display.
	if n := t.count.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// closeAndDrain marks the table closed and removes every entry,
// returning them. Only the first caller drains (first=true); later
// calls are no-ops. After closeAndDrain, register returns false, so the
// caller owns delivering a close error to each drained entry and no
// entry can be lost: registrations concurrent with the sweep either
// self-withdraw or are swept.
func (t *callTable[V]) closeAndDrain() (items []V, first bool) {
	if !t.closed.CompareAndSwap(false, true) {
		return nil, false
	}
	var zero V
	for i := range t.slots {
		s := &t.slots[i]
		for {
			w := s.id.Load()
			if w == 0 || w == slotClaim {
				// Free, or mid-register: the registrar re-checks closed
				// after publishing and withdraws its own entry.
				break
			}
			if s.id.CompareAndSwap(w, slotClaim) {
				items = append(items, s.val)
				s.val = zero
				s.id.Store(0)
				t.count.Add(-1)
				break
			}
		}
	}
	t.mu.Lock()
	for id, v := range t.overflow {
		items = append(items, v)
		delete(t.overflow, id)
		t.count.Add(-1)
	}
	t.mu.Unlock()
	return items, true
}

// callCtx is the per-inbound-request context. The old implementation
// used context.WithCancel(baseCtx), which registers every call with the
// parent cancelCtx under the *parent's* mutex — one more lock every
// dispatch and un-dispatch serialized on. callCtx keeps the same
// observable contract (canceled by a peer cancel frame and by endpoint
// teardown, Value/Deadline delegate to the base context) without
// touching the parent: teardown cancels each live callCtx explicitly
// when it drains the active table. The Done channel is allocated lazily
// on first use, so handlers that never block skip the allocation
// entirely.
type callCtx struct {
	base     context.Context
	done     atomic.Pointer[chan struct{}]
	canceled atomic.Bool
	closing  atomic.Bool // arbitration for close(done) between Done and cancel
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (c *callCtx) Deadline() (time.Time, bool) { return c.base.Deadline() }

func (c *callCtx) Value(key any) any { return c.base.Value(key) }

func (c *callCtx) Err() error {
	if c.canceled.Load() {
		return context.Canceled
	}
	return c.base.Err()
}

func (c *callCtx) Done() <-chan struct{} {
	if c.canceled.Load() && c.done.Load() == nil {
		// Already canceled with no channel published: every waiter can
		// share the one permanently-closed channel.
		return closedChan
	}
	ch := c.done.Load()
	if ch == nil {
		n := make(chan struct{})
		if c.done.CompareAndSwap(nil, &n) {
			ch = &n
		} else {
			ch = c.done.Load()
		}
		// cancel may have run between the canceled check above and the
		// publish; it would have seen done==nil and skipped the close,
		// so finish the job here. closing arbitrates the close between
		// this path and cancel.
		if c.canceled.Load() && c.closing.CompareAndSwap(false, true) {
			close(*ch)
		}
	}
	return *ch
}

// cancel fires the context. Idempotent and safe to race with Done.
func (c *callCtx) cancel() {
	c.canceled.Store(true)
	if ch := c.done.Load(); ch != nil && c.closing.CompareAndSwap(false, true) {
		close(*ch)
	}
}
