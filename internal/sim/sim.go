// Package sim models the hardware of the paper's testbed — network RTT,
// NIC bandwidth, disk bandwidth and latency, and lock-server RPC
// processing rate (Table I) — so the 96-node evaluation can run in a
// single process while preserving the performance *ratios* Equation (1)
// of the paper shows the results depend on.
//
// A link's NIC and a client's cache-copy engine are serialized resources
// (Device): concurrent users queue behind each other. A data server's
// disk is modelled in internal/storage, by a request queue that merges
// contiguous requests.
package sim

import (
	"context"
	"sync"
	"time"
)

// Hardware describes the simulated machine and fabric. A zero value in
// any field disables that delay (infinite speed), which tests use to keep
// pure protocol checks fast.
type Hardware struct {
	// RTT is the network round-trip time between any two nodes. Each
	// message in flight is delayed RTT/2.
	RTT time.Duration
	// NetBandwidth is the per-link bandwidth in bytes/second.
	NetBandwidth float64
	// DiskBandwidth is the per-server storage bandwidth in bytes/second.
	DiskBandwidth float64
	// DiskLatency is the fixed per-operation storage latency.
	DiskLatency time.Duration
	// ServerOPS caps the lock-server RPC processing rate (ops/second).
	ServerOPS float64
	// CacheBandwidth is the client memory-cache copy speed in
	// bytes/second; it bounds how fast writes land in the client cache.
	CacheBandwidth float64
	// Clock is the time source every simulated delay runs on. The zero
	// value is the wall clock; a virtual run sets a VClock here and the
	// whole fabric (NICs, disks, limiters, daemons) inherits it.
	Clock Clock
}

// TableI returns the paper's Table I parameters scaled down by factor
// scale (delays multiplied by scale, bandwidths divided by scale), so a
// scale of 1 reproduces the published numbers and larger scales keep
// benchmark wall-clock time reasonable while preserving every ratio.
//
// Paper values: OPS = 1e7 op/s (the evaluation's CaRT stack measured
// 213 kOPS; we use that, since it is what the results were produced
// with), RTT = 1 µs-class IB (we use 10 µs, a conservative verbs+rxm
// figure), B_net = 12.5 GB/s, B_disk = 3 GB/s.
func TableI(scale float64) Hardware {
	if scale <= 0 {
		scale = 1
	}
	return Hardware{
		RTT:            time.Duration(10e3 * scale * float64(time.Nanosecond)), // 10 µs at scale 1
		NetBandwidth:   12.5e9 / scale,
		DiskBandwidth:  3e9 / scale,
		DiskLatency:    time.Duration(20e3 * scale * float64(time.Nanosecond)),
		ServerOPS:      213e3 / scale,
		CacheBandwidth: 20e9 / scale,
	}
}

// Fast returns a hardware model with no simulated delays, for functional
// tests where only protocol behaviour matters.
func Fast() Hardware { return Hardware{} }

// TransferTime returns the time bytes take at bw bytes/second, or zero
// when bw is unlimited.
func TransferTime(bytes int64, bw float64) time.Duration {
	if bw <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// Device is a serialized shared resource (a NIC, a memory-copy engine,
// a service thread pool of depth one). Users call Use, which blocks for
// the simulated service time including queueing behind earlier users.
type Device struct {
	mu   sync.Mutex
	next time.Time
	clk  Clock
}

// SetClock points the device at a (virtual) clock. Call before first
// use; the zero clock is the wall clock.
func (dev *Device) SetClock(c Clock) { dev.clk = c }

// reserve books d of device time starting no earlier than now and
// returns the completion time. The reservation is unconditional: once
// made, the device stays busy through it whether or not the caller
// waits it out (§II-C — a transmission committed to the link occupies
// the link even if the sender gives up on it).
func (dev *Device) reserve(d time.Duration) time.Time {
	now := dev.clk.Now()
	dev.mu.Lock()
	done := later(dev.next, now).Add(d)
	dev.next = done
	dev.mu.Unlock()
	return done
}

// Use occupies the device for d of service time, queueing behind any
// earlier in-flight use, and blocks until the simulated completion time.
// It is a no-op when d <= 0.
func (dev *Device) Use(d time.Duration) {
	if dev == nil || d <= 0 {
		return
	}
	done := dev.reserve(d)
	dev.clk.SleepUntil(context.Background(), done)
}

// UseCtx is Use bounded by ctx. Reservation-vs-cancel semantics,
// explicitly: the device time is reserved either way — even when ctx
// is already canceled on entry — because the transmission is already
// committed to the link, and reserved-but-abandoned time still delays
// later users. Only the *wait* is cancelable: the caller stops waiting
// and gets ctx's error as soon as it fires, including before any
// sleep when the cancel raced ahead of the call.
func (dev *Device) UseCtx(ctx context.Context, d time.Duration) error {
	if dev == nil || d <= 0 {
		return ctx.Err()
	}
	done := dev.reserve(d)
	if err := ctx.Err(); err != nil {
		return err
	}
	return dev.clk.SleepUntil(ctx, done)
}

// UseBytes occupies the device for bytes at bw bytes/second plus fixed
// latency lat.
func (dev *Device) UseBytes(bytes int64, bw float64, lat time.Duration) {
	dev.Use(TransferTime(bytes, bw) + lat)
}

// UseBytesCtx is UseBytes bounded by ctx.
func (dev *Device) UseBytesCtx(ctx context.Context, bytes int64, bw float64, lat time.Duration) error {
	return dev.UseCtx(ctx, TransferTime(bytes, bw)+lat)
}

// SleepUntil blocks until deadline or until ctx fires, returning ctx's
// error in the latter case. A past deadline returns ctx.Err()
// immediately (nil when the context is still live).
func SleepUntil(ctx context.Context, deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RateLimiter enforces an operations-per-second cap, modelling the lock
// server's bounded RPC processing rate (OPS in Table I). Admission
// slots are one interval apart and come in two classes (DESIGN.md
// §7.1). A normal admission reserves the first free slot, in arrival
// order. An ahead admission takes the earliest slot whose holder has
// not yet been admitted, and every normal admission reserved behind it
// moves back one interval; ahead admissions keep arrival order among
// themselves. The lock server admits a standalone delegation ack ahead,
// since the requests queued before it may be waiting for it.
type RateLimiter struct {
	mu       sync.Mutex
	interval time.Duration
	next     time.Time // end of the last reserved slot
	admitted time.Time // end of the last slot whose holder was admitted
	aheads   uint64    // ahead admissions made so far
	clk      Clock
}

// SetClock points the limiter at a (virtual) clock. Call before first
// use; the zero clock is the wall clock.
func (r *RateLimiter) SetClock(c Clock) {
	if r != nil {
		r.clk = c
	}
}

// NewRateLimiter returns a limiter admitting ops operations per second,
// or an unlimited one when ops <= 0.
func NewRateLimiter(ops float64) *RateLimiter {
	if ops <= 0 {
		return &RateLimiter{}
	}
	return &RateLimiter{interval: time.Duration(float64(time.Second) / ops)}
}

// Wait blocks until the caller's operation is admitted, in the ahead
// class when ahead is set. The slot is consumed either way, but the
// caller stops queueing and gets ctx's error when it fires first. A nil
// or unlimited limiter admits at once.
func (r *RateLimiter) Wait(ctx context.Context, ahead bool) error {
	if r == nil || r.interval == 0 {
		return ctx.Err()
	}
	now := r.clk.Now()
	r.mu.Lock()
	if ahead {
		start := later(r.admitted, now)
		r.admitted = start.Add(r.interval)
		r.next = later(r.next, start).Add(r.interval)
		r.aheads++
		r.mu.Unlock()
		return r.clk.SleepUntil(ctx, start)
	}
	start := later(r.next, now)
	r.next = start.Add(r.interval)
	seen := r.aheads
	r.mu.Unlock()
	for {
		if err := r.clk.SleepUntil(ctx, start); err != nil {
			return err
		}
		// Every ahead admission made since this one reserved took a slot
		// at or before its own: move back one interval per each.
		r.mu.Lock()
		if n := r.aheads - seen; n != 0 {
			seen = r.aheads
			r.mu.Unlock()
			start = start.Add(time.Duration(n) * r.interval)
			continue
		}
		r.admitted = later(r.admitted, start.Add(r.interval))
		r.mu.Unlock()
		return nil
	}
}

// later returns the later of a and b.
func later(a, b time.Time) time.Time {
	if a.Before(b) {
		return b
	}
	return a
}
