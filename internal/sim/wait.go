package sim

import (
	"context"
	"errors"
	"sync"
	"time"
)

// The blocking waits of the program, each written once for both clocks
// (DESIGN.md §15). On a virtual clock a wait parks the running coroutine
// on a key — the channel for Recv, the Cond itself for Cond.Wait — and
// the waker's Send, Close or Broadcast wakes that key; on the wall clock
// the same call is a select or a sync.Cond wait. A wait that the end of
// the virtual run interrupts finishes on the wall-clock path.

var (
	// ErrStopped is Recv's result when its stop channel closed first.
	ErrStopped = errors.New("sim: wait stopped")
	// ErrDeadline is Recv's result when its deadline passed first.
	ErrDeadline = errors.New("sim: wait deadline passed")
)

// Recv receives from ch like `x, ok := <-ch` (ok is false once ch is
// closed), unless ctx fires (ctx.Err()), stop closes (ErrStopped) or the
// deadline passes (ErrDeadline) first. A nil stop and a zero deadline
// never fire.
//
// On a virtual clock Recv checks ch, then ctx, then stop, and parks on
// ch until a wake, checking again at each one. A cancellation wakes
// nothing there: the waiter sees it at its next wake. ch must be the
// very channel the wakers Send on or Close — the park is keyed on it,
// and a key of another type, such as a receive-only view of ch, never
// matches.
func Recv[T any](ctx context.Context, clk Clock, ch chan T, stop <-chan struct{}, deadline time.Time) (x T, ok bool, err error) {
	if v := clk.v; v != nil {
		ns := v.deadlineNs(deadline)
		for {
			select {
			case x, ok = <-ch:
				return x, ok, nil
			default:
			}
			if err := ctx.Err(); err != nil {
				return x, false, err
			}
			select {
			case <-stop:
				return x, false, ErrStopped
			default:
			}
			r := v.waitOn(ch, ns)
			if r == WakeExited {
				break
			}
			// A wake that WakeupAt timed before the deadline is a key wake.
			if r == WakeTimeout && ns >= 0 && v.nowNs.Load() >= ns {
				return x, false, ErrDeadline
			}
		}
	}
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(deadline.Sub(clk.Now()))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case x, ok = <-ch:
		return x, ok, nil
	case <-ctx.Done():
		return x, false, ctx.Err()
	case <-stop:
		return x, false, ErrStopped
	case <-timeout:
		return x, false, ErrDeadline
	}
}

// Send sends x on ch and wakes the Recv parked on it.
func Send[T any](clk Clock, ch chan T, x T) {
	ch <- x
	clk.Wakeup(ch)
}

// Close closes ch and wakes every Recv parked on it.
func Close[T any](clk Clock, ch chan T) {
	close(ch)
	clk.Wakeup(ch)
}

// Cond is a condition variable on a clock: sync.Cond with a Wait that
// ctx and a deadline bound.
type Cond struct {
	clk  Clock
	cond sync.Cond
	// ended is set, under the lock, once a wait saw the virtual run end:
	// from then on waits are on the wall clock.
	ended bool
}

// NewCond returns a condition variable on clk guarded by l.
func NewCond(clk Clock, l sync.Locker) *Cond {
	return &Cond{clk: clk, cond: sync.Cond{L: l}}
}

// Wait unlocks the lock, suspends the caller until a Broadcast, ctx
// fires, or the deadline (zero: none) passes, and locks again before it
// returns. Like sync.Cond.Wait it may return early, so the caller waits
// in a loop that tests its condition, and its ctx, before each Wait.
func (c *Cond) Wait(ctx context.Context, deadline time.Time) {
	if v := c.clk.v; v != nil && !c.ended {
		c.cond.L.Unlock()
		r := v.waitOn(c, v.deadlineNs(deadline))
		c.cond.L.Lock()
		c.ended = r == WakeExited
		return
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, c.wake)
		defer stop()
	}
	if !deadline.IsZero() {
		t := time.AfterFunc(deadline.Sub(c.clk.Now()), c.wake)
		defer t.Stop()
	}
	c.cond.Wait()
}

// wake broadcasts for a fired ctx or deadline on the wall clock.
func (c *Cond) wake() {
	c.cond.L.Lock()
	c.cond.Broadcast()
	c.cond.L.Unlock()
}

// Broadcast wakes every waiter. The caller holds the lock.
func (c *Cond) Broadcast() {
	c.cond.Broadcast()
	c.clk.Wakeup(c)
}
