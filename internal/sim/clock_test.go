package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

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
