package sim

import (
	"context"
	"sync"
	"testing"
	"time"
)

// onBothClocks runs body on the wall clock, then as the root of a
// virtual run.
func onBothClocks(t *testing.T, body func(t *testing.T, clk Clock)) {
	t.Run("wall", func(t *testing.T) { body(t, Clock{}) })
	t.Run("virtual", func(t *testing.T) {
		v := NewVClock(1)
		v.Run(func() { body(t, Virtual(v)) })
	})
}

// TestRecv: each way a receive ends, on both clocks. On a virtual clock
// a cancellation or a stop wakes nothing, so the canceller wakes the
// channel after it, as the program's cancel paths do.
func TestRecv(t *testing.T) {
	const d = 10 * time.Millisecond
	cases := []struct {
		name   string
		stop   bool                // pass a stop channel
		dl     bool                // pass a deadline d ahead
		pre    func(cancel func()) // before the wait
		during func(clk Clock, ch chan int, cancel func(), stop chan struct{})
		want   int
		ok     bool
		err    error
	}{
		{name: "value", during: func(clk Clock, ch chan int, _ func(), _ chan struct{}) { Send(clk, ch, 7) }, want: 7, ok: true},
		{name: "ctx already canceled", pre: func(cancel func()) { cancel() }, err: context.Canceled},
		{name: "ctx fires mid-wait", during: func(clk Clock, ch chan int, cancel func(), _ chan struct{}) {
			cancel()
			clk.Wakeup(ch)
		}, err: context.Canceled},
		{name: "deadline", dl: true, err: ErrDeadline},
		{name: "closed", during: func(clk Clock, ch chan int, _ func(), _ chan struct{}) { Close(clk, ch) }},
		{name: "stop", stop: true, during: func(clk Clock, ch chan int, _ func(), stop chan struct{}) {
			close(stop)
			clk.Wakeup(ch)
		}, err: ErrStopped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			onBothClocks(t, func(t *testing.T, clk Clock) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ch := make(chan int, 1)
				var stop chan struct{}
				if tc.stop {
					stop = make(chan struct{})
				}
				var deadline time.Time
				if tc.dl {
					deadline = clk.Now().Add(d)
				}
				if tc.pre != nil {
					tc.pre(cancel)
				}
				if tc.during != nil {
					clk.Go(func() {
						clk.Sleep(d)
						tc.during(clk, ch, cancel, stop)
					})
				}
				start := clk.Now()
				x, ok, err := Recv(ctx, clk, ch, stop, deadline)
				if x != tc.want || ok != tc.ok || err != tc.err {
					t.Fatalf("Recv = %d, %v, %v; want %d, %v, %v", x, ok, err, tc.want, tc.ok, tc.err)
				}
				if clk.v != nil && tc.pre == nil {
					if got := clk.Since(start); got != d {
						t.Fatalf("Recv returned after %v of virtual time, want %v", got, d)
					}
				}
			})
		})
	}
}

// TestRecvFinishesAfterRun: a receive that the end of the virtual run
// interrupts finishes on the wall-clock path.
func TestRecvFinishesAfterRun(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	ch := make(chan int)
	got := make(chan int, 1)
	v.Run(func() {
		clk.Go(func() {
			x, _, _ := Recv(context.Background(), clk, ch, nil, time.Time{})
			got <- x
		})
		clk.Sleep(time.Second)
	})
	ch <- 5 // no coroutine is left to wake: the receiver is a plain goroutine now
	select {
	case x := <-got:
		if x != 5 {
			t.Fatalf("received %d, want 5", x)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the receive did not finish after the run ended")
	}
}

// TestSendWakesRecv: a coroutine parked in Recv resumes on the Send
// helper's own wakeup; a key mismatch would end the run in a stall
// report instead.
func TestSendWakesRecv(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	v.Run(func() {
		ch := make(chan struct{})
		g := NewGroup(clk)
		for range 3 {
			g.Go(func() { Recv(context.Background(), clk, ch, nil, time.Time{}) })
		}
		reply := make(chan int, 1)
		g.Go(func() {
			if x, _, _ := Recv(context.Background(), clk, reply, nil, time.Time{}); x != 9 {
				t.Errorf("received %d, want 9", x)
			}
		})
		clk.Sleep(time.Millisecond)
		Send(clk, reply, 9)
		Close(clk, ch)
		g.Wait()
	})
}

// TestCond: Wait returns on Broadcast and on its deadline on both
// clocks, and on ctx on the wall clock.
func TestCond(t *testing.T) {
	const d = 10 * time.Millisecond
	onBothClocks(t, func(t *testing.T, clk Clock) {
		var mu sync.Mutex
		c := NewCond(clk, &mu)
		done := false
		clk.Go(func() {
			clk.Sleep(d)
			mu.Lock()
			done = true
			c.Broadcast()
			mu.Unlock()
		})
		mu.Lock()
		for !done {
			c.Wait(context.Background(), time.Time{})
		}
		start := clk.Now()
		c.Wait(context.Background(), start.Add(d))
		if got := clk.Since(start); got < d || clk.v != nil && got != d {
			t.Fatalf("deadline wait returned after %v, want %v", got, d)
		}
		mu.Unlock()
	})
	t.Run("wall ctx", func(t *testing.T) {
		var mu sync.Mutex
		c := NewCond(Clock{}, &mu)
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		mu.Lock()
		for ctx.Err() == nil {
			c.Wait(ctx, time.Time{})
		}
		mu.Unlock()
	})
}

// TestSendWakesOne: a Send to a channel with three Recvs parked on it
// readies exactly one of them, the first to park, and that one takes
// the value although its ctx was canceled while it waited: a token put
// back in a window is never lost to a waiter that gave up.
func TestSendWakesOne(t *testing.T) {
	v := NewVClock(1)
	v.Run(func() {
		clk := Virtual(v)
		ch := make(chan int, 1)
		ctx, cancel := context.WithCancel(context.Background())
		type result struct {
			i, x int
			err  error
		}
		results := make(chan result, 3)
		for i := range 3 {
			c := context.Background()
			if i == 0 {
				c = ctx
			}
			clk.Go(func() {
				x, _, err := Recv(c, clk, ch, nil, time.Time{})
				results <- result{i, x, err}
			})
		}
		clk.Sleep(time.Microsecond) // all three park, in spawn order
		cancel()                    // wakes nothing
		Send(clk, ch, 7)
		v.mu.Lock()
		parked := 0
		for g := v.parked[ch]; g != nil; g = g.next {
			parked++
		}
		v.mu.Unlock()
		if parked != 2 {
			t.Errorf("%d receivers still parked after one Send, want 2", parked)
		}
		clk.Sleep(time.Microsecond)
		if r := <-results; r.i != 0 || r.x != 7 || r.err != nil {
			t.Errorf("woken receiver = %+v, want the first, with 7 and no error", r)
		}
		Close(clk, ch)
		clk.Sleep(time.Microsecond)
		if n := len(results); n != 2 {
			t.Errorf("%d receivers returned after Close, want 2", n)
		}
	})
}
