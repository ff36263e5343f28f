package sim_test

import (
	"context"
	"testing"
	"time"

	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// TestAllocBudgetPark: a park is a recycled record, a recycled event
// and a link in its key's chain, so in steady state neither a
// WaitOn/Wakeup hand-over between two goroutines nor a Sleep allocates.
func TestAllocBudgetPark(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	var handover, sleep, timed float64
	v.Run(func() {
		ping, pong := new(int), new(int)
		stop := false
		clk.Go(func() {
			for v.WaitOn(ping) == sim.WakeKey && !stop {
				v.Wakeup(pong)
			}
		})
		round := func() {
			v.Wakeup(ping)
			v.WaitOn(pong)
		}
		clk.Sleep(time.Microsecond) // let the partner park
		round()
		handover = testing.AllocsPerRun(200, round)
		sleep = testing.AllocsPerRun(200, func() { clk.Sleep(time.Microsecond) })
		// A timed wait that a key wakes first leaves a dead event in the
		// heap; it is recycled when virtual time passes it.
		timed = testing.AllocsPerRun(200, func() {
			v.Wakeup(ping)
			v.WaitOnUntil(pong, clk.Now().Add(time.Microsecond))
			clk.Sleep(2 * time.Microsecond)
		})
		stop = true
		v.Wakeup(ping)
	})
	if handover != 0 {
		t.Errorf("WaitOn/Wakeup round trip: %.1f allocs, want 0", handover)
	}
	if sleep != 0 {
		t.Errorf("Sleep: %.1f allocs, want 0", sleep)
	}
	if timed != 0 {
		t.Errorf("WaitOnUntil woken by its key: %.1f allocs, want 0", timed)
	}
}

// TestAllocBudgetSpawn: a finished goroutine's coroutine waits on the
// idle list, so a spawn that finds one there — and that goroutine's own
// retirement back onto the list — allocates nothing.
func TestAllocBudgetSpawn(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	var spawn float64
	v.Run(func() {
		done := new(int)
		child := func() { v.Wakeup(done) }
		round := func() {
			clk.Go(child)
			v.WaitOn(done)
		}
		round()
		clk.Sleep(time.Microsecond) // the first child has retired
		spawn = testing.AllocsPerRun(200, round)
	})
	if spawn != 0 {
		t.Errorf("Go onto an idle worker, run, retire: %.1f allocs, want 0", spawn)
	}
}

// TestRunQueueOrder pins the run queue's dequeue order across the
// head-index rewrite: goroutines readied by one Wakeup run in park
// order, and ones spawned meanwhile queue behind them.
func TestRunQueueOrder(t *testing.T) {
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	var order []int
	v.Run(func() {
		key := new(int)
		g := sim.NewGroup(clk)
		for i := 0; i < 100; i++ {
			g.Go(func() {
				v.WaitOn(key)
				order = append(order, i)
			})
		}
		clk.Sleep(time.Microsecond) // all hundred are parked on key
		v.Wakeup(key)
		for i := 100; i < 110; i++ {
			g.Go(func() { order = append(order, i) })
		}
		g.Wait()
	})
	if len(order) != 110 {
		t.Fatalf("%d goroutines ran, want 110", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("run order %v: position %d ran goroutine %d", order, i, got)
		}
	}
}

// TestAllocBudgetRateLimiter: an admission is a reservation under the
// limiter's mutex and a sleep, in either class, so neither a queued
// normal admission, an ahead one, nor a normal one moved back behind
// an ahead one allocates.
func TestAllocBudgetRateLimiter(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	r := sim.NewRateLimiter(1e5)
	r.SetClock(clk)
	ctx := context.Background()
	var normal, ahead, moved float64
	v.Run(func() {
		done, left := new(int), 0
		queued := func() {
			r.Wait(ctx, false)
			if left--; left == 0 {
				v.Wakeup(done)
			}
		}
		round := func() {
			left = 2
			clk.Go(queued)
			clk.Go(queued)
			clk.Sleep(time.Nanosecond) // both have reserved
			r.Wait(ctx, true)
			for left > 0 {
				v.WaitOn(done)
			}
		}
		round() // warm the idle coroutine list
		normal = testing.AllocsPerRun(200, func() { r.Wait(ctx, false) })
		ahead = testing.AllocsPerRun(200, func() { r.Wait(ctx, true) })
		moved = testing.AllocsPerRun(200, round)
	})
	if normal != 0 || ahead != 0 || moved != 0 {
		t.Errorf("allocs per admission: normal %.1f, ahead %.1f, moved back %.1f; want 0", normal, ahead, moved)
	}
}
