package rpc

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/wire"
)

// callTable maps in-flight call IDs to per-call state: reply channels on
// the outbound side, cancelable contexts on the inbound side. Call IDs
// come from a monotonically increasing counter and are never reused. mu
// is a leaf lock, held for one map operation and never across a channel
// send. The zero value is an empty open table; the map is made by the
// first register (a simulated cluster builds sixteen endpoints per
// client and most carry little traffic).
type callTable[V any] struct {
	mu     sync.Mutex
	m      map[uint64]V
	closed bool
}

// register publishes v under id. It returns false when the table is
// closed: the entry was not stored and the caller still owns v.
func (t *callTable[V]) register(id uint64, v V) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if t.m == nil {
		t.m = make(map[uint64]V)
	}
	t.m[id] = v
	return true
}

// take removes and returns the entry for id. Exactly one taker wins per
// registered id (complete, forget, cancel, and drain all funnel through
// here); the rest see ok=false. That is the single-sender guarantee the
// reply-channel recycling (chanPool) depends on.
func (t *callTable[V]) take(id uint64) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.m[id]
	delete(t.m, id)
	return v, ok
}

// length returns the number of registered entries (tests, metrics).
func (t *callTable[V]) length() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// closeAndDrain marks the table closed and removes every entry,
// returning them in ascending call-ID order: shutdown wakes callers in
// that order, which is timing-visible under the virtual clock. Only the
// first caller drains (first=true); later calls are no-ops. After
// closeAndDrain, register returns false, so the caller owns delivering
// a close error to each drained entry and no entry can be lost.
func (t *callTable[V]) closeAndDrain() (items []V, first bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false
	}
	t.closed = true
	for _, id := range slices.Sorted(maps.Keys(t.m)) {
		items = append(items, t.m[id])
	}
	t.m = nil
	return items, true
}

// callCtx is the per-inbound-request context: canceled by a peer cancel
// frame and by endpoint teardown, Value/Deadline delegating to the base
// context. It is not a context.WithCancel(baseCtx) child because that
// registers every call with the parent cancelCtx under the parent's
// mutex, twice per request; teardown instead cancels each live callCtx
// explicitly when it drains the active table. The Done channel is
// allocated lazily on first use, so handlers that never block skip the
// allocation entirely.
//
// It is also the request's record — what arrived and the handler it goes
// to — and its own sim.Task (Run, in rpc.go), so a request costs one
// record, not a context plus a closure over it; and the record is
// recycled (callCtxs). Run puts it back when the handler has returned
// and both of these hold:
//
//   - Run's own take of the active-table entry won. Otherwise a cancel
//     frame or the shutdown drain took it, and may be about to call
//     cancel on it.
//   - Done was never called. Otherwise a Done channel went out, and
//     whoever selects on it may still hold the record.
//
// The handler may not keep its ctx past its return (Handler), so then
// nobody else can hold the record. Otherwise the record is left to the
// collector — chanPool's rule for reply channels. Recycling zeroes it,
// so a holder that broke the rule finds a nil base and ep and fails at
// once instead of reading another request's state.
type callCtx struct {
	ep     *Endpoint
	id     uint64
	method wire.Method
	frame  []byte
	h      Handler

	base     context.Context
	done     atomic.Pointer[chan struct{}]
	canceled atomic.Bool
	closing  atomic.Bool // arbitration for close(done) between Done and cancel
}

var callCtxs = sync.Pool{New: func() any { return new(callCtx) }}

// recycle zeroes the record and pools it; see callCtx for when.
func (c *callCtx) recycle() {
	*c = callCtx{}
	callCtxs.Put(c)
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
