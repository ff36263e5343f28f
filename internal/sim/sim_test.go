package sim

import (
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

func TestRateLimiter(t *testing.T) {
	// 1000 ops/sec => 20 ops should take >= ~19ms.
	r := NewRateLimiter(1000)
	start := time.Now()
	for i := 0; i < 20; i++ {
		r.Wait()
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("20 ops at 1000 op/s finished in %v", elapsed)
	}
}

func TestRateLimiterUnlimited(t *testing.T) {
	r := NewRateLimiter(0)
	start := time.Now()
	for i := 0; i < 100000; i++ {
		r.Wait()
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("unlimited limiter throttled")
	}
	var nilR *RateLimiter
	nilR.Wait() // must not panic
}

func TestRateLimiterConcurrent(t *testing.T) {
	r := NewRateLimiter(2000)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r.Wait()
			}
		}()
	}
	wg.Wait()
	// 40 ops at 2000 op/s >= ~19ms regardless of caller count.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("concurrent limiter admitted too fast: %v", elapsed)
	}
}
