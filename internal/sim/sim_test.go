package sim

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestTransferTime(t *testing.T) {
	if d := TransferTime(1e9, 1e9); d != time.Second {
		t.Fatalf("1 GB at 1 GB/s = %v, want 1s", d)
	}
	if d := TransferTime(100, 0); d != 0 {
		t.Fatalf("unlimited bandwidth must cost nothing, got %v", d)
	}
	if d := TransferTime(0, 1e9); d != 0 {
		t.Fatalf("zero bytes must cost nothing, got %v", d)
	}
}

func TestTableIScaling(t *testing.T) {
	h1 := TableI(1)
	h10 := TableI(10)
	if h10.RTT != 10*h1.RTT {
		t.Fatalf("RTT scaling wrong: %v vs %v", h1.RTT, h10.RTT)
	}
	if h10.DiskBandwidth*10 != h1.DiskBandwidth {
		t.Fatalf("disk bandwidth scaling wrong")
	}
	// The crucial invariant: scaling must preserve the ratio between the
	// flush term and the RTT term of Equation (1).
	d := int64(1 << 20)
	r1 := float64(TransferTime(d, h1.DiskBandwidth)) / float64(h1.RTT)
	r10 := float64(TransferTime(d, h10.DiskBandwidth)) / float64(h10.RTT)
	if r1 < r10*0.99 || r1 > r10*1.01 {
		t.Fatalf("flush/RTT ratio not preserved: %v vs %v", r1, r10)
	}
	if h := TableI(0); h.RTT != TableI(1).RTT {
		t.Fatal("non-positive scale must default to 1")
	}
}

func TestFastIsFree(t *testing.T) {
	h := Fast()
	var dev Device
	start := time.Now()
	dev.UseBytes(1<<30, h.DiskBandwidth, h.DiskLatency)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("Fast hardware must not sleep")
	}
}

func TestDeviceSerializes(t *testing.T) {
	var dev Device
	const users = 8
	const each = 5 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev.Use(each)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < users*each {
		t.Fatalf("device did not serialize: %d users × %v finished in %v", users, each, elapsed)
	}
}

func TestDeviceNilAndZero(t *testing.T) {
	var dev *Device
	dev.Use(time.Hour) // must not block or panic
	var d2 Device
	d2.Use(0)
	d2.Use(-time.Second)
}

// arrival is one caller of a limiter under test: it calls Wait at
// offset at from the run's start, in the ahead class when ahead is set.
type arrival struct {
	at    time.Duration
	ahead bool
}

// admissions runs arrivals on a virtual clock against a limiter
// admitting one operation per interval and returns the instant each
// was admitted at, as an offset from the run's start. Arrivals at the
// same instant call Wait in slice order.
func admissions(t *testing.T, seed int64, interval time.Duration, arrivals []arrival) []time.Duration {
	t.Helper()
	v := NewVClock(seed)
	clk := Virtual(v)
	r := &RateLimiter{interval: interval}
	r.SetClock(clk)
	got := make([]time.Duration, len(arrivals))
	v.Run(func() {
		t0 := clk.Now()
		g := NewGroup(clk)
		for i, a := range arrivals {
			g.Go(func() {
				clk.SleepUntil(context.Background(), t0.Add(a.at))
				if err := r.Wait(context.Background(), a.ahead); err != nil {
					t.Errorf("arrival %d: %v", i, err)
				}
				got[i] = clk.Since(t0)
			})
		}
		g.Wait()
	})
	return got
}

func checkAdmissions(t *testing.T, arrivals []arrival, want []time.Duration) {
	t.Helper()
	got := admissions(t, 1, 10*time.Microsecond, arrivals)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("admitted at %v, want %v", got, want)
		}
	}
}

// TestRateLimiter: with normal admissions only, each caller reserves
// the first free slot in arrival order — start = max(next, now), then
// next = start + interval — and an idle limiter admits at once.
func TestRateLimiter(t *testing.T) {
	const us = time.Microsecond
	checkAdmissions(t, []arrival{
		{at: 0}, {at: 0}, {at: 0}, {at: 0}, // a burst: one slot each
		{at: 15 * us},                  // queues behind the burst
		{at: 100 * us}, {at: 100 * us}, // idle again: now, then one slot later
		{at: 125 * us}, // the slot at 110 has ended
	}, []time.Duration{0, 10 * us, 20 * us, 30 * us, 40 * us, 100 * us, 110 * us, 125 * us})
}

// TestRateLimiterAhead: an ahead admission takes the earliest slot
// whose holder has not been admitted, and each normal admission
// reserved behind it moves back exactly one interval. On a limiter
// with nothing queued it is admitted like a normal one.
func TestRateLimiterAhead(t *testing.T) {
	const us = time.Microsecond
	checkAdmissions(t, []arrival{
		{at: 0}, {at: 0}, {at: 0}, {at: 0}, {at: 0}, // slots 0 … 40
		{at: 15 * us, ahead: true}, // slot 10 is admitted: takes 20
		{at: 16 * us},              // reserves behind the whole queue
		{at: 200 * us, ahead: true},
		{at: 205 * us, ahead: true}, // the slot at 200 has started
	}, []time.Duration{0, 10 * us, 30 * us, 40 * us, 50 * us, 20 * us, 60 * us, 200 * us, 210 * us})
}

// TestRateLimiterAheadFIFO: ahead admissions keep arrival order among
// themselves, and a later one queues behind an earlier one whose slot
// has not started, not in front of it.
func TestRateLimiterAheadFIFO(t *testing.T) {
	const us = time.Microsecond
	checkAdmissions(t, []arrival{
		{at: 0}, {at: 0}, {at: 0}, {at: 0}, // slots 0 … 30
		{at: 5 * us, ahead: true},  // A: 10
		{at: 6 * us, ahead: true},  // B: behind A, 20
		{at: 25 * us, ahead: true}, // C: B has started, 30
	}, []time.Duration{0, 40 * us, 50 * us, 60 * us, 10 * us, 20 * us, 30 * us})
}

// TestRateLimiterConcurrent: under a seeded mix of normal and ahead
// arrivals, no two admissions are closer than one interval (the OPS
// rate is never exceeded), nobody is admitted before it arrived, and
// each class is admitted in its own arrival order.
func TestRateLimiterConcurrent(t *testing.T) {
	const iv = 10 * time.Microsecond
	for seed := int64(1); seed <= 4; seed++ {
		v := NewVClock(seed)
		arrivals := make([]arrival, 300)
		for i := range arrivals {
			arrivals[i] = arrival{at: time.Duration(v.Int63n(int64(2 * time.Millisecond))), ahead: v.Int63n(4) == 0}
		}
		sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
		got := admissions(t, seed, iv, arrivals)
		last := [2]time.Duration{-1, -1}
		for i, a := range arrivals {
			if got[i] < a.at {
				t.Fatalf("seed %d: arrival %d at %v admitted at %v", seed, i, a.at, got[i])
			}
			class := 0
			if a.ahead {
				class = 1
			}
			if got[i] <= last[class] {
				t.Fatalf("seed %d: arrival %d (ahead %v) admitted at %v, after a later one of its class at %v", seed, i, a.ahead, got[i], last[class])
			}
			last[class] = got[i]
		}
		slices.Sort(got)
		for i := 1; i < len(got); i++ {
			if gap := got[i] - got[i-1]; gap < iv {
				t.Fatalf("seed %d: admissions at %v and %v, %v apart: over the rate", seed, got[i-1], got[i], gap)
			}
		}
	}
}

// TestRateLimiterCtx: a caller whose context has fired gets its error
// back in either class, and its slot stays consumed.
func TestRateLimiterCtx(t *testing.T) {
	const us = time.Microsecond
	v := NewVClock(1)
	clk := Virtual(v)
	r := &RateLimiter{interval: 10 * us}
	r.SetClock(clk)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()
	var at [2]time.Duration
	v.Run(func() {
		t0 := clk.Now()
		if err := r.Wait(done, false); err != context.Canceled {
			t.Errorf("normal Wait on a fired context = %v", err)
		}
		r.Wait(bg, false) // slot 0 is gone: 10
		at[0] = clk.Since(t0)
		if err := r.Wait(done, true); err != context.Canceled {
			t.Errorf("ahead Wait on a fired context = %v", err)
		}
		r.Wait(bg, false) // the ahead took 20: 30
		at[1] = clk.Since(t0)
	})
	if at != [2]time.Duration{10 * us, 30 * us} {
		t.Fatalf("admitted at %v, want [10µs 30µs]", at)
	}
}

// TestRateLimiterUnlimited: a nil or unlimited limiter admits at once
// in either class.
func TestRateLimiterUnlimited(t *testing.T) {
	v := NewVClock(1)
	clk := Virtual(v)
	r := NewRateLimiter(0)
	r.SetClock(clk)
	var nilR *RateLimiter
	var waited time.Duration
	v.Run(func() {
		t0 := clk.Now()
		for i := 0; i < 1000; i++ {
			r.Wait(context.Background(), i%2 == 0)
			nilR.Wait(context.Background(), i%2 == 1)
		}
		waited = clk.Since(t0)
	})
	if waited != 0 {
		t.Fatalf("unlimited limiters waited %v", waited)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := nilR.Wait(done, true); err != context.Canceled {
		t.Fatalf("nil limiter on a fired context = %v", err)
	}
}
