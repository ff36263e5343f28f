package sim

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestVClockRunOnceOnly: a clock runs once. Run on a clock whose run has
// ended panics instead of running f in passthrough mode, where Sleep
// would leave Now unchanged and work started with Go would wait for the
// next Run.
func TestVClockRunOnceOnly(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	v.Run(func() { clk.Sleep(time.Microsecond) })
	ran := false
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "run has ended") {
				t.Errorf("second Run: recovered %v, want the ended-run panic", r)
			}
		}()
		v.Run(func() { ran = true })
	}()
	if ran {
		t.Error("second Run ran its function")
	}
}

// TestVClockOrdering: sleeps wake in timestamp order regardless of
// spawn order, and virtual time advances without wall time passing.
func TestVClockOrdering(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	var mu sync.Mutex
	var order []string
	wallStart := time.Now()
	v.Run(func() {
		start := clk.Now()
		g := NewGroup(clk)
		for _, d := range []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second} {
			d := d
			g.Go(func() {
				clk.Sleep(d)
				mu.Lock()
				order = append(order, d.String())
				mu.Unlock()
			})
		}
		g.Wait()
		if got := clk.Since(start); got != 30*time.Second {
			t.Errorf("virtual elapsed = %v, want 30s", got)
		}
	})
	if wall := time.Since(wallStart); wall > 5*time.Second {
		t.Errorf("wall elapsed = %v for 30s of virtual time", wall)
	}
	want := []string{"10s", "20s", "30s"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

// TestVClockAfterFuncStop: a stopped timer never fires; an unstopped
// one fires at its timestamp.
func TestVClockAfterFuncStop(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	var fired, stopped bool
	v.Run(func() {
		tm := clk.AfterFunc(5*time.Second, func() { stopped = true })
		clk.AfterFunc(10*time.Second, func() { fired = true })
		clk.Sleep(time.Second)
		if !tm.Stop() {
			t.Error("Stop on pending timer = false")
		}
		clk.Sleep(20 * time.Second)
	})
	if stopped {
		t.Error("stopped timer fired")
	}
	if !fired {
		t.Error("live timer did not fire")
	}
}

// TestVClockWaitWakeup: keyed waits wake in FIFO order; timed waits
// report timeouts.
func TestVClockWaitWakeup(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	key := new(int)
	var order []int
	v.Run(func() {
		g := NewGroup(clk)
		for i := 0; i < 3; i++ {
			i := i
			g.Go(func() {
				clk.Sleep(time.Duration(i+1) * time.Second) // park in order 0,1,2
				if r := v.WaitOn(key); r != WakeKey {
					t.Errorf("waiter %d: reason %v", i, r)
				}
				order = append(order, i)
			})
		}
		clk.Sleep(10 * time.Second)
		v.Wakeup(key)
		g.Wait()

		if r := v.WaitOnUntil(key, clk.Now().Add(3*time.Second)); r != WakeTimeout {
			t.Errorf("timed wait reason = %v, want WakeTimeout", r)
		}
	})
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order %v, want FIFO", order)
		}
	}
}

// TestVClockDeterminism: the same program produces the same event
// interleaving on every run.
func TestVClockDeterminism(t *testing.T) {
	trace := func() string {
		v := NewVClock(42)
		clk := Virtual(v)
		var mu sync.Mutex
		out := ""
		v.Run(func() {
			g := NewGroup(clk)
			for i := 0; i < 8; i++ {
				i := i
				g.Go(func() {
					for j := 0; j < 5; j++ {
						clk.Sleep(time.Duration(v.Int63n(1000)) * time.Millisecond)
						mu.Lock()
						out += fmt.Sprintf("%d@%v;", i, clk.Since(v.base))
						mu.Unlock()
					}
				})
			}
			g.Wait()
		})
		return out
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("two identical seeded runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestDeviceReservedTimeDelaysLaterUsers: §II-C queueing — a canceled
// UseCtx still occupies the device, so a later user queues behind the
// abandoned reservation. Covers the reservation-vs-cancel semantics on
// both the already-canceled fast path and the normal path.
func TestDeviceReservedTimeDelaysLaterUsers(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	v.Run(func() {
		var dev Device
		dev.SetClock(clk)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// Already-canceled caller: must not wait, but must reserve.
		start := clk.Now()
		if err := dev.UseCtx(ctx, 10*time.Second); err != context.Canceled {
			t.Fatalf("UseCtx on canceled ctx = %v, want context.Canceled", err)
		}
		if waited := clk.Since(start); waited != 0 {
			t.Fatalf("canceled UseCtx waited %v virtual time", waited)
		}
		// The next user queues behind the abandoned time.
		dev.Use(time.Second)
		if got := clk.Since(start); got != 11*time.Second {
			t.Fatalf("later user finished after %v, want 11s (10s abandoned + 1s own)", got)
		}
	})
}

// TestDeviceReservedTimeDelaysLaterUsersReal: same contract on the
// wall clock, at millisecond scale.
func TestDeviceReservedTimeDelaysLaterUsersReal(t *testing.T) {
	var dev Device
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := dev.UseCtx(ctx, 50*time.Millisecond); err != context.Canceled {
		t.Fatalf("UseCtx on canceled ctx = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 20*time.Millisecond {
		t.Fatalf("canceled UseCtx blocked for %v", waited)
	}
	dev.Use(10 * time.Millisecond)
	if got := time.Since(start); got < 50*time.Millisecond {
		t.Fatalf("later user finished after %v, want >= 50ms (abandoned reservation)", got)
	}
}

// TestVClockExitReleasesParked: after Run's body returns, parked
// goroutines are released into real time instead of leaking.
func TestVClockExitReleasesParked(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	released := make(chan struct{})
	v.Run(func() {
		clk.Go(func() {
			v.WaitOn(released) // never woken inside the run
			close(released)
		})
		clk.Sleep(time.Second)
	})
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("parked goroutine not released at exit")
	}
}

// TestWakeupAtRearmsParked: a goroutine parked on a key is handed its
// wake-up time and sleeps through to it in the same park; a time that
// is not in the future wakes it at once, and a wall clock ignores the
// call.
func TestWakeupAtRearmsParked(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	v.Run(func() {
		t0 := clk.Now()
		key := new(int)
		var woke [2]time.Duration
		var why [2]WakeReason
		g := NewGroup(clk)
		for i := range woke {
			g.Go(func() {
				why[i] = v.WaitOn(key)
				woke[i] = clk.Since(t0)
			})
		}
		clk.Sleep(time.Second)
		clk.WakeupAt(key, t0.Add(5*time.Second))
		g.Wait()
		for i := range woke {
			if woke[i] != 5*time.Second || why[i] != WakeTimeout {
				t.Fatalf("waiter %d woke at %v with reason %d, want 5s by deadline", i, woke[i], why[i])
			}
		}
		g.Go(func() {
			why[0] = v.WaitOn(key)
			woke[0] = clk.Since(t0)
		})
		clk.Sleep(time.Second)
		clk.WakeupAt(key, t0) // already past
		g.Wait()
		if woke[0] != 6*time.Second || why[0] != WakeKey {
			t.Fatalf("past-time wake at %v with reason %d, want 6s by key", woke[0], why[0])
		}
	})
	Clock{}.WakeupAt(new(int), time.Now()) // wall clock: no-op
}

// runRecover runs f under a fresh clock and returns what Run panicked
// with, nil if it returned.
func runRecover(f func(v *VClock, clk Clock)) (p any) {
	v := NewVClock(1)
	defer func() { p = recover() }()
	v.Run(func() { f(v, Virtual(v)) })
	return nil
}

// TestStallPanicsInRunCaller: a run in which nothing can ever run again
// panics in the goroutine that called Run, where a test can recover it
// (or simply fail), with the parked keys in the message — and the
// goroutines it leaves parked are released like at any other exit.
func TestStallPanicsInRunCaller(t *testing.T) {
	var released atomic.Int32
	p := runRecover(func(v *VClock, clk Clock) {
		clk.Go(func() {
			if v.WaitOn(new(int)) == WakeExited {
				released.Add(1)
			}
		})
		if v.WaitOn(new(string)) == WakeExited {
			released.Add(1)
		}
	})
	msg, _ := p.(string)
	for _, want := range []string{"stalled", "2 tracked goroutines", "2 parked", "*int:1", "*string:1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Run panicked with %q, want it to mention %q", p, want)
		}
	}
	eventually(t, "both stalled goroutines released", func() bool { return released.Load() == 2 })
}

// eventually polls cond, in real time, for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not within 5s: %s", what)
		}
	}
}

// TestPanicInTrackedGoroutineReachesRun: a panic in a spawned goroutine,
// and a runtime.Goexit (what t.FailNow does), surface in Run's caller
// rather than on a goroutine nobody can recover.
func TestPanicInTrackedGoroutineReachesRun(t *testing.T) {
	p := runRecover(func(v *VClock, clk Clock) {
		clk.Go(func() {
			clk.Sleep(time.Second)
			panic("boom")
		})
		clk.Sleep(time.Hour)
	})
	if p != "boom" {
		t.Errorf("Run panicked with %v, want boom", p)
	}

	returned, exited := false, make(chan struct{})
	go func() {
		defer close(exited)
		v := NewVClock(1)
		v.Run(func() {
			Virtual(v).Go(runtime.Goexit)
			Virtual(v).Sleep(time.Hour)
		})
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("Goexit in a tracked goroutine did not end Run's caller")
	}
	if returned {
		t.Error("Run returned after a tracked goroutine called Goexit")
	}
}

// TestRunReleasesParkedAtExit: whatever is still parked when f returns
// runs to its end in real time, keyed waits reporting WakeExited, and no
// goroutine — tracked, idle, or one of the helpers that resume them —
// outlives that. Twenty clocks, so one leak per run shows.
func TestRunReleasesParkedAtExit(t *testing.T) {
	before := runtime.NumGoroutine()
	for n := 0; n < 20; n++ {
		v := NewVClock(int64(n))
		clk := Virtual(v)
		var finished, exited atomic.Int32
		var wg sync.WaitGroup
		v.Run(func() {
			key := new(int)
			for i := 0; i < 200; i++ {
				wg.Add(2)
				clk.Go(func() {
					defer wg.Done()
					if v.WaitOn(key) == WakeExited {
						exited.Add(1)
					}
					finished.Add(1)
				})
				clk.Go(func() {
					defer wg.Done()
					clk.Sleep(time.Hour)
					finished.Add(1)
				})
			}
			// A burst that finishes inside the run leaves idle workers.
			g := NewGroup(clk)
			for i := 0; i < 100; i++ {
				g.Go(func() { clk.Sleep(time.Millisecond) })
			}
			g.Wait()
		})
		wg.Wait()
		if finished.Load() != 400 || exited.Load() != 200 {
			t.Fatalf("clock %d: %d of 400 parked goroutines finished, %d of 200 keyed waits saw WakeExited", n, finished.Load(), exited.Load())
		}
	}
	eventually(t, fmt.Sprintf("back to the %d goroutines of before the runs", before), func() bool { return runtime.NumGoroutine() <= before })
}

// idleWorkers is the test's view of the idle list.
func (v *VClock) idleWorkers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.idle)
}

// TestIdleWorkersFollowLiveCount: the idle list serves a burst but does
// not keep a burst's worth of coroutines once the load is gone.
func TestIdleWorkersFollowLiveCount(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	v.Run(func() {
		burst, stay := new(int), new(int)
		for i := 0; i < 1000; i++ {
			key := burst
			if i < 10 {
				key = stay
			}
			clk.Go(func() { v.WaitOn(key) })
		}
		clk.Sleep(time.Microsecond) // a thousand alive at once
		if n := v.idleWorkers(); n != 0 {
			t.Errorf("%d idle workers while all thousand are parked", n)
		}
		v.Wakeup(burst)
		clk.Sleep(time.Microsecond) // all but ten have finished
		if n := v.idleWorkers(); n != minIdle {
			t.Errorf("%d idle workers with 11 goroutines alive, want %d", n, minIdle)
		}
		v.Wakeup(stay)
	})
}

// TestScheduleOrderRepeats: a thousand seeded steps mixing every
// scheduling primitive — spawns that reuse workers, sleeps, keyed waits
// with and without deadlines, wakeups now and at a time, timers — run in
// the same order on every run.
func TestScheduleOrderRepeats(t *testing.T) {
	trace := func() []string {
		v := NewVClock(7)
		clk := Virtual(v)
		var log []string
		v.Run(func() {
			var keys [4]*int
			for i := range keys {
				keys[i] = new(int)
			}
			note := func(who int, what string) {
				log = append(log, fmt.Sprintf("%d %s @%v", who, what, clk.Since(v.base)))
			}
			g := NewGroup(clk)
			for id := 0; id < 20; id++ {
				g.Go(func() {
					for step := 0; step < 50; step++ {
						key := keys[v.Int63n(int64(len(keys)))]
						d := time.Duration(1+v.Int63n(500)) * time.Microsecond
						switch v.Int63n(7) {
						case 0:
							clk.Sleep(d)
							note(id, "slept")
						case 1:
							g.Go(func() { note(id, "child") })
						case 2:
							// Every untimed wait arranges its own wakeup, so
							// the program cannot stall.
							clk.AfterFunc(d, func() { v.Wakeup(key) })
							note(id, fmt.Sprint("woken ", v.WaitOn(key)))
						case 3:
							note(id, fmt.Sprint("timed ", v.WaitOnUntil(key, clk.Now().Add(d))))
						case 4:
							v.Wakeup(key)
						case 5:
							v.WakeupAt(key, clk.Now().Add(d))
						case 6:
							g.Go(func() {
								clk.Sleep(d)
								note(id, "late child")
							})
						}
					}
				})
			}
			g.Wait()
		})
		return log
	}
	a, b := trace(), trace()
	if len(a) < 500 {
		t.Fatalf("only %d steps recorded", len(a))
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("runs diverge at step %d of %d/%d: %q vs %q", i, len(a), len(b), a[i], b[min(i, len(b)-1)])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("runs recorded %d and %d steps", len(a), len(b))
	}
}
