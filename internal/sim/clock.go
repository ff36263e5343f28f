// Discrete-event virtual time (DESIGN.md §15). A VClock replaces the
// wall clock for a whole simulated cluster: every sleep, timer, and
// device reservation becomes an event on a min-heap keyed by
// (virtual time, creation sequence), and the logical clock jumps to
// the next event's timestamp only when no simulation goroutine is
// runnable — the goroutine-quiescence rule. Runs are deterministic:
// every tracked goroutine is a coroutine that the caller of Run drives,
// so exactly one of them executes at any instant, Run's loop is the one
// place that decides which advances next, and every interleaving is a
// pure function of the event order, which is itself a pure function of
// the seed and the workload.
//
// The contract call sites must keep:
//
//   - every goroutine that participates in virtual time is spawned
//     through Clock.Go/GoTask (or transitively from one that was), and
//     while the run lasts nothing else calls the clock: a park finds
//     its own record as "the coroutine the driver resumed last", so a
//     call from an untracked goroutine is undefined, not merely
//     unordered;
//   - every blocking operation is mediated: block only through Recv,
//     Cond.Wait, Sleep/SleepUntil and Group.Wait (wait.go), and wake
//     through Send, Close and Cond.Broadcast, which carry their own
//     Wakeup;
//   - nothing reads the wall clock on a simulated path (time.Now,
//     time.Sleep, raw time.Timer) — Clock.Now and friends only.
//
// Check-then-park is atomic for free: between testing a condition and
// parking on its key the running coroutine does not switch, so no
// other simulation goroutine can slip in a wakeup.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"iter"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a value handle over either the wall clock (zero value) or
// a shared virtual clock. Components embed one by value; the zero
// value behaves exactly like the pre-virtual-time code did.
type Clock struct{ v *VClock }

// V returns the underlying virtual clock, or nil on a wall clock.
func (c Clock) V() *VClock { return c.v }

// Now returns the current (virtual or wall) time.
func (c Clock) Now() time.Time {
	if c.v != nil {
		return c.v.Now()
	}
	return time.Now()
}

// Since returns the time elapsed since t on this clock.
func (c Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep pauses the calling goroutine for d of clock time.
func (c Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.v != nil && c.v.sleep(d) {
		return
	}
	time.Sleep(d)
}

// SleepUntil blocks until deadline or until ctx fires, returning ctx's
// error in the latter case. On a virtual clock the wait is an event:
// cancellation cannot interrupt it mid-wait (the wait costs no wall
// time), but a context already canceled on entry returns immediately.
func (c Clock) SleepUntil(ctx context.Context, deadline time.Time) error {
	if c.v != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.v.sleepUntil(deadline) {
			return nil
		}
	}
	return SleepUntil(ctx, deadline)
}

// SleepCtx sleeps d and reports whether ctx is still live — the shape
// every periodic daemon loop wants: `for clk.SleepCtx(ctx, iv) { tick }`.
func (c Clock) SleepCtx(ctx context.Context, d time.Duration) bool {
	if c.v != nil {
		if ctx.Err() != nil {
			return false
		}
		if c.v.sleep(d) {
			return ctx.Err() == nil
		}
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Task is a unit of work for GoTask: a spawn site that already has a
// record per spawn hands the record itself over instead of a closure
// over it.
type Task interface{ Run() }

// funcTask runs a plain function as a Task; a func value converts to the
// interface without allocating.
type funcTask func()

func (f funcTask) Run() { f() }

// Go runs f in a new goroutine tracked by the clock. On a wall clock
// (or after the virtual run ended) it is a plain `go f()`.
func (c Clock) Go(f func()) { c.GoTask(funcTask(f)) }

// GoTask is Go for a Task.
func (c Clock) GoTask(t Task) {
	if c.v != nil && c.v.spawn(t) {
		return
	}
	go t.Run()
}

// Wakeup readies every goroutine parked on key. A no-op on a wall
// clock, so wake sites can call it unconditionally.
func (c Clock) Wakeup(key any) {
	if c.v != nil {
		c.v.Wakeup(key)
	}
}

// WakeupAt tells every goroutine parked on key to wake at time at
// instead of now. A no-op on a wall clock, like Wakeup.
func (c Clock) WakeupAt(key any, at time.Time) {
	if c.v != nil {
		c.v.WakeupAt(key, at)
	}
}

// AfterFunc runs f after d of clock time, in its own goroutine.
func (c Clock) AfterFunc(d time.Duration, f func()) *ClockTimer {
	if c.v != nil {
		if t := c.v.afterFunc(d, f); t != nil {
			return t
		}
	}
	return &ClockTimer{realT: time.AfterFunc(d, f)}
}

// ClockTimer is the AfterFunc handle for either clock flavor.
type ClockTimer struct {
	v     *VClock
	ev    *event
	realT *time.Timer
}

// Stop cancels the timer; it reports whether the timer was still
// pending. A fired virtual callback is never un-run.
func (t *ClockTimer) Stop() bool {
	if t == nil {
		return false
	}
	if t.realT != nil {
		return t.realT.Stop()
	}
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	live := !t.ev.dead && !t.ev.fired
	t.ev.dead = true
	return live
}

// WakeReason says why a virtual wait returned.
type WakeReason uint8

const (
	// WakeKey: a Wakeup on the wait's key.
	WakeKey WakeReason = iota
	// WakeTimeout: the wait's deadline arrived.
	WakeTimeout
	// WakeExited: the virtual run ended (Exit); the caller must fall
	// back to its real-time blocking path.
	WakeExited
)

const (
	stateParked = iota
	stateReady
	stateRun
)

// vg is one tracked goroutine: a coroutine (iter.Pull) that runs one
// task after another and is only ever resumed by the driver loop in Run
// — or, once the run has ended, by the plain goroutine exitAll hands it
// to. The record doubles as the goroutine's park state: it is on at most
// one of the run queue, a key's chain, the event heap (through ev) or
// the idle list.
type vg struct {
	state  uint8
	reason WakeReason
	key    any    // set while parked on a key
	ev     *event // set while parked with a deadline
	task   Task   // what the coroutine runs next

	// resume switches into the coroutine and returns when it yields or
	// ends; stop makes an idle coroutine return; yield, set by the
	// coroutine itself, switches back to whoever resumed it.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// next chains the goroutines parked on one key in park order; the
	// chain's head (the map entry) also tracks its tail.
	next, tail *vg
}

// event is a heap entry: wake g (a sleeper/timed wait) or spawn fn (an
// AfterFunc) at virtual time at. seq breaks timestamp ties in creation
// order, which keeps simultaneous events deterministic. Wake events are
// recycled through VClock.freeEv once they leave the heap; an AfterFunc
// event belongs to its ClockTimer and is not.
type event struct {
	at    int64
	seq   uint64
	g     *vg
	fn    func()
	dead  bool
	fired bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// minIdle is the floor of the idle-worker bound (see retire).
const minIdle = 64

// VClock is a deterministic discrete-event scheduler. Construct with
// NewVClock, hand it to components' Clock fields via Virtual, drive the
// whole simulation inside Run.
type VClock struct {
	base  time.Time
	nowNs atomic.Int64

	mu       sync.Mutex
	seq      uint64
	evq      eventQueue
	freeEv   []*event
	runq     []*vg // runq[runqHead:] is live, in ready order
	runqHead int
	parked   map[any]*vg // key -> chain of goroutines parked on it
	idle     []*vg       // coroutines between tasks, most recent last
	ngo      int
	exited   bool

	// The hand-over between the driver and the one running coroutine,
	// ordered by the coroutine switch itself: cur is the coroutine the
	// driver resumed last, pick the one it resumes next (nil ends the
	// loop), stalled why there is none.
	root, cur, pick *vg
	stalled         string

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewVClock returns a virtual clock seeded for deterministic
// randomness. The virtual epoch is fixed (not wall-derived) so that
// absolute timestamps are reproducible across runs.
func NewVClock(seed int64) *VClock {
	return &VClock{
		base:   time.Unix(1_000_000_000, 0),
		parked: make(map[any]*vg),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Virtual wraps v as a Clock handle (nil gives the wall clock).
func Virtual(v *VClock) Clock { return Clock{v: v} }

// Now returns the current virtual time.
func (v *VClock) Now() time.Time { return v.base.Add(time.Duration(v.nowNs.Load())) }

// Int63n draws from the seeded source.
func (v *VClock) Int63n(n int64) int64 {
	v.rngMu.Lock()
	defer v.rngMu.Unlock()
	return v.rng.Int63n(n)
}

// Run executes f as the root simulation goroutine and drives every
// tracked goroutine from the calling one until f returns, then ends the
// virtual run: the clock flips to passthrough mode and every
// still-parked goroutine is released to real time, so ordinary teardown
// (Close/Shutdown) needs no mediation. Everything the run's output
// depends on must be captured inside f.
//
// A panic or runtime.Goexit (t.FailNow) in any tracked goroutine, and
// the stall report, surface here in Run's caller; the run is ended
// first, as if f had returned.
func (v *VClock) Run(f func()) {
	defer v.exitAll()
	v.mu.Lock()
	v.root = v.spawnLocked(funcTask(f))
	g := v.pickLocked()
	v.mu.Unlock()
	for g != nil {
		v.cur = g
		g.resume()
		g = v.pick
	}
	if v.stalled != "" {
		panic(v.stalled)
	}
}

// exitAll ends the run: stop the idle coroutines and hand every parked
// or ready one to a plain goroutine that resumes it into real-time
// execution. Called by the driver with no coroutine running, so no
// further virtual events fire and the end of the run is deterministic.
func (v *VClock) exitAll() {
	v.mu.Lock()
	v.exited = true
	var wake []*vg
	wake = append(wake, v.runq[v.runqHead:]...)
	v.runq, v.runqHead = nil, 0
	for _, head := range v.parked {
		for g := head; g != nil; g = g.next {
			g.state = stateReady
			wake = append(wake, g)
		}
	}
	v.parked = make(map[any]*vg)
	for _, ev := range v.evq {
		// A dead event's sleeper has moved on to a later park; a timed
		// wait on a key was collected from its chain above.
		if g := ev.g; !ev.dead && g != nil && g.state == stateParked {
			g.state = stateReady
			wake = append(wake, g)
		}
		ev.dead = true
	}
	v.evq, v.freeEv = nil, nil
	idle := v.idle
	v.idle = nil
	v.mu.Unlock()
	for _, g := range idle {
		g.stop()
	}
	for _, g := range wake {
		g.state, g.reason = stateRun, WakeExited
		go g.resume()
	}
}

// spawn starts t as a tracked simulation goroutine, runnable after the
// spawner next parks. Reports false once the run has ended (the caller
// falls back to `go t.Run()`).
func (v *VClock) spawn(t Task) bool {
	v.mu.Lock()
	if v.exited {
		v.mu.Unlock()
		return false
	}
	v.spawnLocked(t)
	v.mu.Unlock()
	return true
}

// spawnLocked queues t on an idle coroutine, or a new one when none is
// idle.
func (v *VClock) spawnLocked(t Task) *vg {
	v.ngo++
	g := v.popIdleLocked()
	if g == nil {
		g = v.newWorker()
	}
	g.task = t
	g.state, g.reason = stateReady, WakeKey
	v.pushRunLocked(g)
	return g
}

// popIdleLocked takes the most recently idled coroutine off the idle
// list, nil if there is none.
func (v *VClock) popIdleLocked() *vg {
	n := len(v.idle)
	if n == 0 {
		return nil
	}
	g := v.idle[n-1]
	v.idle[n-1] = nil
	v.idle = v.idle[:n-1]
	return g
}

// newWorker makes a coroutine that runs its record's task each time it
// is resumed with one; it starts on its first resume.
func (v *VClock) newWorker() *vg {
	g := new(vg)
	g.resume, g.stop = iter.Pull(func(yield func(struct{}) bool) {
		g.yield = yield
		for {
			g.task.Run()
			g.task = nil
			if !v.retire(g) {
				return
			}
		}
	})
	return g
}

// retire ends g's task and hands the run on; it reports whether g comes
// back with another task. A finished coroutine waits on the idle list
// for the next spawn, which then costs no allocation and no fresh stack.
// The list follows the live count — it may hold max(live, minIdle)
// coroutines, and each retirement sheds what is over — so a burst's
// coroutines serve the next burst but do not outlive the load that
// needed them.
func (v *VClock) retire(g *vg) bool {
	v.mu.Lock()
	if v.exited {
		v.mu.Unlock()
		return false
	}
	if g == v.root {
		// f returned: the driver ends the run.
		v.pick = nil
		v.mu.Unlock()
		return false
	}
	v.ngo--
	bound := max(v.ngo, minIdle)
	if len(v.idle) < bound {
		v.idle = append(v.idle, g)
		return v.switchLocked(g)
	}
	var extra *vg
	if len(v.idle) > bound {
		extra = v.popIdleLocked()
	}
	v.pick = v.pickLocked()
	v.mu.Unlock()
	if extra != nil {
		extra.stop()
	}
	return false
}

// WaitOn parks the caller until Wakeup(key) or the end of the run.
func (v *VClock) WaitOn(key any) WakeReason { return v.waitOn(key, -1) }

// WaitOnUntil is WaitOn bounded by a deadline in virtual time.
func (v *VClock) WaitOnUntil(key any, deadline time.Time) WakeReason {
	return v.waitOn(key, deadline.Sub(v.base).Nanoseconds())
}

// deadlineNs converts a deadline to waitOn's form: virtual nanoseconds,
// or -1 for none (the zero time).
func (v *VClock) deadlineNs(deadline time.Time) int64 {
	if deadline.IsZero() {
		return -1
	}
	return deadline.Sub(v.base).Nanoseconds()
}

func (v *VClock) waitOn(key any, deadlineNs int64) WakeReason {
	v.mu.Lock()
	if v.exited {
		v.mu.Unlock()
		return WakeExited
	}
	if deadlineNs >= 0 && deadlineNs <= v.nowNs.Load() {
		v.mu.Unlock()
		return WakeTimeout
	}
	g := v.cur
	g.state, g.reason, g.key = stateParked, WakeKey, key
	if key != nil {
		v.parkLocked(g)
	}
	if deadlineNs >= 0 {
		g.ev = v.pushEventLocked(deadlineNs, g, nil)
	}
	v.switchLocked(g)
	return g.reason
}

// sleep parks the caller for d of virtual time; false once exited.
func (v *VClock) sleep(d time.Duration) bool {
	v.mu.Lock()
	if v.exited {
		v.mu.Unlock()
		return false
	}
	if d <= 0 {
		v.mu.Unlock()
		return true
	}
	v.sleepLocked(v.nowNs.Load() + d.Nanoseconds())
	return true
}

func (v *VClock) sleepUntil(deadline time.Time) bool {
	v.mu.Lock()
	if v.exited {
		v.mu.Unlock()
		return false
	}
	ns := deadline.Sub(v.base).Nanoseconds()
	if ns <= v.nowNs.Load() {
		v.mu.Unlock()
		return true
	}
	v.sleepLocked(ns)
	return true
}

// sleepLocked parks the running coroutine until virtual time atNs.
// Called with v.mu held; releases it.
func (v *VClock) sleepLocked(atNs int64) {
	g := v.cur
	g.state, g.reason, g.key = stateParked, WakeKey, nil
	g.ev = v.pushEventLocked(atNs, g, nil)
	v.switchLocked(g)
}

// switchLocked hands the run from the running coroutine g, whose record
// already says where it waits, to the next pick: through the driver,
// or by simply carrying on when the pick is g itself. It returns when g
// runs again, false if that is because g was stopped. Called with v.mu
// held; releases it.
func (v *VClock) switchLocked(g *vg) bool {
	next := v.pickLocked()
	if next == g {
		v.mu.Unlock()
		return true
	}
	v.pick = next
	v.mu.Unlock()
	return g.yield(struct{}{})
}

func (v *VClock) afterFunc(d time.Duration, f func()) *ClockTimer {
	v.mu.Lock()
	if v.exited {
		v.mu.Unlock()
		return nil
	}
	if d < 0 {
		d = 0
	}
	ev := v.pushEventLocked(v.nowNs.Load()+d.Nanoseconds(), nil, f)
	v.mu.Unlock()
	return &ClockTimer{v: v, ev: ev}
}

// Wakeup readies every goroutine parked on key, in park order. The
// caller keeps running; the woken goroutines queue behind it.
func (v *VClock) Wakeup(key any) { v.wakeup(key, 0) }

// WakeupAt turns every goroutine parked on key into a sleeper that
// wakes at time at (with WakeTimeout), or readies it now when at is
// not in the future. It lets a dispatcher that already knows when a
// waiter's work completes hand it that time directly: the waiter parks
// once, instead of being woken only to go back to sleep.
func (v *VClock) WakeupAt(key any, at time.Time) {
	v.wakeup(key, at.Sub(v.base).Nanoseconds())
}

// wakeup takes the goroutines parked on key off it: ready now, or due
// at virtual time atNs if that is still ahead.
func (v *VClock) wakeup(key any, atNs int64) {
	v.mu.Lock()
	if head := v.parked[key]; head != nil {
		delete(v.parked, key)
		for g := head; g != nil; {
			next := g.next
			g.next, g.tail = nil, nil
			if atNs <= v.nowNs.Load() {
				v.readyLocked(g, WakeKey)
			} else {
				g.key = nil
				if g.ev != nil {
					g.ev.dead = true
				}
				g.ev = v.pushEventLocked(atNs, g, nil)
			}
			g = next
		}
	}
	v.mu.Unlock()
}

// parkLocked appends g to the chain of goroutines parked on g.key.
func (v *VClock) parkLocked(g *vg) {
	head := v.parked[g.key]
	if head == nil {
		g.tail = g
		v.parked[g.key] = g
		return
	}
	head.tail.next = g
	head.tail = g
}

func (v *VClock) readyLocked(g *vg, why WakeReason) {
	g.state = stateReady
	g.reason = why
	g.key = nil
	if g.ev != nil {
		g.ev.dead = true
		g.ev = nil
	}
	v.pushRunLocked(g)
}

// pushRunLocked appends g to the run queue, compacting the consumed
// prefix first so a steady hand-over reuses one backing array.
func (v *VClock) pushRunLocked(g *vg) {
	if v.runqHead > 0 && len(v.runq) == cap(v.runq) {
		n := copy(v.runq, v.runq[v.runqHead:])
		clear(v.runq[n:])
		v.runq = v.runq[:n]
		v.runqHead = 0
	}
	v.runq = append(v.runq, g)
}

func (v *VClock) pushEventLocked(at int64, g *vg, fn func()) *event {
	v.seq++
	var ev *event
	if n := len(v.freeEv); n > 0 {
		ev = v.freeEv[n-1]
		v.freeEv = v.freeEv[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{at: at, seq: v.seq, g: g, fn: fn}
	heap.Push(&v.evq, ev)
	return ev
}

// freeEventLocked recycles an event that has left the heap. Only wake
// events: an AfterFunc event is still referenced by its ClockTimer.
func (v *VClock) freeEventLocked(ev *event) {
	if ev.fn == nil {
		ev.g = nil
		v.freeEv = append(v.freeEv, ev)
	}
}

// pickLocked takes the next runnable goroutine off the run queue,
// advancing virtual time over the event heap when none is ready. It
// returns nil, with v.stalled saying why, when nothing can ever run
// again.
func (v *VClock) pickLocked() *vg {
	for {
		if v.runqHead < len(v.runq) {
			g := v.runq[v.runqHead]
			v.runq[v.runqHead] = nil
			v.runqHead++
			if v.runqHead == len(v.runq) {
				v.runq, v.runqHead = v.runq[:0], 0
			}
			g.state = stateRun
			return g
		}
		ev := v.popEventLocked()
		if ev == nil {
			v.stalled = v.stallLocked()
			return nil
		}
		if ev.at > v.nowNs.Load() {
			v.nowNs.Store(ev.at)
		}
		ev.fired = true
		if ev.g != nil {
			if ev.g.state == stateParked {
				if ev.g.key != nil {
					v.dropParkedLocked(ev.g)
				}
				ev.g.ev = nil
				v.readyLocked(ev.g, WakeTimeout)
			}
		} else if ev.fn != nil {
			v.spawnLocked(funcTask(ev.fn))
		}
		v.freeEventLocked(ev)
	}
}

func (v *VClock) popEventLocked() *event {
	for len(v.evq) > 0 {
		ev := heap.Pop(&v.evq).(*event)
		if ev.dead {
			v.freeEventLocked(ev)
			continue
		}
		return ev
	}
	return nil
}

// dropParkedLocked unlinks g from its key's chain.
func (v *VClock) dropParkedLocked(g *vg) {
	head := v.parked[g.key]
	if head == g {
		if g.next == nil {
			delete(v.parked, g.key)
		} else {
			g.next.tail = g.tail
			v.parked[g.key] = g.next
		}
	} else {
		prev := head
		for prev.next != g {
			prev = prev.next
		}
		prev.next = g.next
		if head.tail == g {
			head.tail = prev
		}
	}
	g.next, g.tail = nil, nil
}

// stallLocked describes a run in which no goroutine is runnable and no
// event is pending — a lost wakeup or an unmediated block. Deadlocking
// silently would be worse: Run panics with this.
func (v *VClock) stallLocked() string {
	keys := make(map[string]int)
	parked := 0
	for k, head := range v.parked {
		for g := head; g != nil; g = g.next {
			keys[fmt.Sprintf("%T", k)]++
			parked++
		}
	}
	return fmt.Sprintf("sim: virtual clock stalled at %v: %d tracked goroutines, %d parked on keys %v, empty event heap — an unmediated block or a missing Wakeup",
		time.Duration(v.nowNs.Load()), v.ngo, parked, keys)
}

// Group is a clock-aware fan-out barrier: sync.WaitGroup semantics
// that a virtual run can mediate. On a wall clock it is exactly
// Add/go/Wait.
type Group struct {
	clk Clock
	mu  sync.Mutex
	n   int
	wg  sync.WaitGroup
}

// NewGroup returns a barrier on clk.
func NewGroup(clk Clock) *Group { return &Group{clk: clk} }

// Go runs f in a tracked goroutine counted by the barrier.
func (g *Group) Go(f func()) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	g.wg.Add(1)
	g.clk.Go(func() {
		defer g.wg.Done()
		f()
		g.mu.Lock()
		g.n--
		last := g.n == 0
		g.mu.Unlock()
		if last {
			g.clk.Wakeup(g)
		}
	})
}

// Wait blocks until every spawned f returned.
func (g *Group) Wait() {
	if v := g.clk.V(); v != nil {
		for {
			g.mu.Lock()
			n := g.n
			g.mu.Unlock()
			if n == 0 {
				return
			}
			if v.WaitOn(g) == WakeExited {
				break
			}
		}
	}
	g.wg.Wait()
}
