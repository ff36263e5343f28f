package storage

import (
	"context"
	"sync"
	"time"

	"ccpfs/internal/obs"
	"ccpfs/internal/sim"
)

// maxRun caps the bytes one device operation transfers when requests
// are merged (a request larger than this is still served whole, alone).
// It is a property of the modelled device, like a block layer's maximum
// request size, so it is a constant and not a knob: on the Table I
// device a 1 MiB operation already spends under 6 % of its time on the
// per-operation latency.
const maxRun = 1 << 20

// SimStore puts a simulated storage device in front of a Store — the
// B_disk term of Equation (1). The device serves one operation at a
// time and charges it DiskLatency plus its bytes at DiskBandwidth.
//
// Requests that find the device busy wait in one FIFO queue. Whenever
// the device falls free, the oldest waiting request is dispatched
// together with every waiting request that extends it into one
// contiguous run on the same stripe (DESIGN.md §6): byte-adjacent
// writes and writes the run covers (the store already holds their
// bytes), and reads whose ranges touch or overlap, so identical reads
// share one operation. A run pays the latency once; each member is done
// when the transfer has passed the end of its own range. A request
// never passes an earlier one it overlaps (unless both are reads).
//
// A read that arrives while a read run holding all of its bytes is in
// service joins that run by the same member rule, unless a waiting
// write it overlaps is ahead of it — as a page-cache reader that finds
// its folio locked for read I/O waits for that I/O instead of issuing
// its own.
//
// The bytes themselves move at submission: WriteV passes its write (and
// the frame it may offer) to the inner store, and ReadAt copies from it,
// under s.mu, in submission order, which is the
// strict FIFO result by construction. The queue keeps only what it needs
// to charge time — kind, stripe, range and arrival — so a backlog of
// simulated requests holds no caller's buffer.
//
// The same code runs on the virtual and on the wall clock.
type SimStore struct {
	inner Store
	clk   sim.Clock
	bw    float64
	lat   time.Duration

	// Stats counts the device's requests and operations.
	Stats DeviceStats

	mu      sync.Mutex
	freeAt  time.Time // end of the run in service; the device is free from then on
	serving run       // the run dispatched last, in service until freeAt
	wait    []request // not yet dispatched, oldest first
	pumping bool      // a pump goroutine is alive; it dispatches when the device falls free
}

// run is what a read arriving during service needs of the run in
// service: its kind, its stripe, the range it transfers and its start.
type run struct {
	write  bool
	stripe uint64
	lo, hi int64
	start  time.Time
}

// DeviceStats counts what the simulated device did. requests − ops is
// the number of requests that were merged into (or shared) another
// request's device operation.
type DeviceStats struct {
	WriteRequests, WriteOps obs.Counter
	ReadRequests, ReadOps   obs.Counter
	// BusyNs is the device time charged so far.
	BusyNs obs.Counter
	// QueueDepth is the number of waiting requests, sampled each time a
	// run is formed (the run's own members included).
	QueueDepth obs.Histogram
}

// Register publishes the counters under storage.* in reg.
func (d *DeviceStats) Register(reg *obs.Registry) {
	reg.RegisterCounter("storage.write_requests", &d.WriteRequests)
	reg.RegisterCounter("storage.write_ops", &d.WriteOps)
	reg.RegisterCounter("storage.read_requests", &d.ReadRequests)
	reg.RegisterCounter("storage.read_ops", &d.ReadOps)
	reg.RegisterCounter("storage.busy_ns", &d.BusyNs)
	reg.RegisterHistogram("storage.queue_depth", &d.QueueDepth)
}

// request is the time-keeping record of one contiguous read or write
// waiting for the device; its bytes were moved when it was submitted.
type request struct {
	c        *call
	write    bool
	member   bool // of the run being formed
	stripe   uint64
	off, end int64
	arrived  time.Time
}

// call is the caller's side of one WriteV or ReadAt: it is complete when
// every request it submitted has been dispatched and the latest of their
// completion times has passed.
type call struct {
	pending int           // requests not yet dispatched
	done    time.Time     // latest completion time of the dispatched ones
	err     error         // first inner-store error, from submission
	ready   chan struct{} // signalled once, when pending reaches zero
}

// callPool recycles call records (and their channels): a deep backlog
// needs one per waiting caller, and a pool lets the collector have them
// back afterwards where a free list would pin them.
var callPool = sync.Pool{New: func() any { return &call{ready: make(chan struct{}, 1)} }}

// Pending is a submitted WriteV.
type Pending struct {
	dev  *SimStore
	c    *call
	err  error
	kept bool
}

// Kept reports whether the store kept the frame offered with the WriteV
// as stored bytes; the frame is then the store's.
func (p Pending) Kept() bool { return p.kept }

// Wait blocks until every extent of the WriteV is stored and returns
// the first error.
func (p Pending) Wait() error {
	if p.c == nil {
		return p.err
	}
	return p.dev.await(p.c)
}

// NewSimStore wraps inner with a device of hw.DiskBandwidth and
// hw.DiskLatency on hw.Clock.
func NewSimStore(inner Store, hw sim.Hardware) *SimStore {
	return &SimStore{inner: inner, clk: hw.Clock, bw: hw.DiskBandwidth, lat: hw.DiskLatency}
}

// WriteAt implements Store, charging simulated device time.
func (s *SimStore) WriteAt(stripe uint64, off int64, data []byte) error {
	return s.WriteV(stripe, []Vec{{Off: off, Data: data}}, nil).Wait()
}

// WriteV implements Store: the write passes through to the inner store
// (frame with it) before WriteV returns, and its extents join the device
// queue together, in order, so neighbours among them (and among other
// callers' waiting extents) are charged as one operation.
func (s *SimStore) WriteV(stripe uint64, vec []Vec, frame []byte) Pending {
	c := callPool.Get().(*call)
	s.mu.Lock()
	now := s.clk.Now()
	stored := s.inner.WriteV(stripe, vec, frame)
	err := stored.Wait()
	for _, v := range vec {
		if len(v.Data) > 0 {
			s.enqueue(c, true, stripe, v.Off, int64(len(v.Data)), now)
		}
	}
	if c.pending == 0 {
		s.mu.Unlock()
		callPool.Put(c)
		return Pending{err: err, kept: stored.kept}
	}
	c.fail(err)
	s.Stats.WriteRequests.Add(int64(c.pending))
	s.kick(now)
	s.mu.Unlock()
	return Pending{dev: s, c: c, kept: stored.kept}
}

// ReadAt implements Store, charging simulated device time.
func (s *SimStore) ReadAt(stripe uint64, off int64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	c := callPool.Get().(*call)
	s.mu.Lock()
	now := s.clk.Now()
	c.fail(s.inner.ReadAt(stripe, off, buf))
	s.Stats.ReadRequests.Inc()
	if r := (request{stripe: stripe, off: off, end: off + int64(len(buf))}); s.joins(&r, now) {
		c.pending++
		s.complete(c, s.serving.start.Add(s.lat+sim.TransferTime(r.end-s.serving.lo, s.bw)))
	} else {
		s.enqueue(c, false, stripe, off, int64(len(buf)), now)
		s.kick(now)
	}
	s.mu.Unlock()
	return s.await(c)
}

// Truncate implements Store. It takes no device time, and it drops the
// bytes at once, under s.mu, in submission order with the writes.
func (s *SimStore) Truncate(stripe uint64, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Truncate(stripe, size)
}

// End implements Store. It takes no device time; under s.mu it sees
// every write and truncate submitted before it.
func (s *SimStore) End(stripe uint64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.End(stripe)
}

// Remove implements Store. It does not pass through the queue.
func (s *SimStore) Remove(stripe uint64) error { return s.inner.Remove(stripe) }

func (s *SimStore) enqueue(c *call, write bool, stripe uint64, off, n int64, now time.Time) {
	c.pending++
	s.wait = append(s.wait, request{
		c: c, write: write, stripe: stripe,
		off: off, end: off + n, arrived: now,
	})
}

// kick starts service after an enqueue. With no pump alive the queue
// held nothing before the enqueue, so if the device is free the new head
// starts at once; whatever is left waiting needs a pump to dispatch it
// when the device falls free. With a pump alive everything is its job,
// in order.
func (s *SimStore) kick(now time.Time) {
	if s.pumping {
		return
	}
	if !now.Before(s.freeAt) {
		s.dispatch()
	}
	if len(s.wait) > 0 {
		s.pumping = true
		s.clk.Go(s.pump)
	}
}

// pump dispatches the waiting requests, one run each time the device
// falls free, and exits when none are left.
func (s *SimStore) pump() {
	s.mu.Lock()
	for len(s.wait) > 0 {
		free := s.freeAt
		s.mu.Unlock()
		s.clk.SleepUntil(context.Background(), free)
		s.mu.Lock()
		s.dispatch()
	}
	s.pumping = false
	s.mu.Unlock()
}

// dispatch forms the next run around the oldest waiting request and
// puts it in service. The caller holds s.mu, the device is free and the
// queue is not empty.
func (s *SimStore) dispatch() {
	q := s.wait
	head := &q[0]
	head.member = true
	lo, hi := head.off, head.end
	// Passes over the queue until the run stops growing: a request may
	// only become adjacent once a later one has joined.
	for grew := hi-lo < maxRun && len(q) > 1; grew; {
		grew = false
		skipped := -1 // first request of this pass left waiting
		for j := 1; j < len(q); j++ {
			r := &q[j]
			if r.member {
				continue
			}
			if r.write == head.write && r.stripe == head.stripe && extends(r, lo, hi) &&
				max(hi, r.end)-min(lo, r.off) <= maxRun &&
				(skipped < 0 || !overtakes(r, q[skipped:j])) {
				r.member = true
				lo, hi = min(lo, r.off), max(hi, r.end)
				grew = true
			} else if skipped < 0 {
				skipped = j
			}
		}
	}

	// The run starts when the device fell free, or when its head arrived
	// if that was later (an idle device, or a pump that woke late).
	start := s.freeAt
	if head.arrived.After(start) {
		start = head.arrived
	}
	cost := s.lat + sim.TransferTime(hi-lo, s.bw)
	s.freeAt = start.Add(cost)
	s.serving = run{write: head.write, stripe: head.stripe, lo: lo, hi: hi, start: start}
	s.Stats.BusyNs.Add(int64(cost))
	s.Stats.QueueDepth.Record(int64(len(q)))
	if head.write {
		s.Stats.WriteOps.Inc()
	} else {
		s.Stats.ReadOps.Inc()
	}

	// Complete the members in queue order and close the gaps they leave.
	// The transfer runs from lo upward, so a member is done when it has
	// passed the member's last byte.
	n := 0
	for j := range q {
		r := &q[j]
		if !r.member {
			q[n] = *r
			n++
			continue
		}
		s.complete(r.c, start.Add(s.lat+sim.TransferTime(r.end-lo, s.bw)))
	}
	clear(q[n:]) // drop the references to completed calls
	s.wait = q[:n]
}

// extends reports whether r grows the run [lo, hi) into a longer
// contiguous one or rides along inside it (writes: byte-adjacent or
// contained, since the store already holds the newest bytes of the
// run; reads: touching, overlapping or contained).
func extends(r *request, lo, hi int64) bool {
	if r.write {
		return r.off == hi || r.end == lo || (r.off >= lo && r.end <= hi)
	}
	return r.off <= hi && r.end >= lo
}

// joins reports whether the read r, arriving at now, is served by the
// run in service: a read run on r's stripe that transfers all of r's
// bytes, with no waiting write r overlaps ahead of r. Such a write would
// have to reach the device first; any other write r overlaps was on
// media before the run began, so the run's transfer carries exactly the
// bytes r took from the store at submission.
func (s *SimStore) joins(r *request, now time.Time) bool {
	v := &s.serving
	return now.Before(s.freeAt) && !v.write && v.stripe == r.stripe &&
		v.lo <= r.off && r.end <= v.hi && !overtakes(r, s.wait)
}

// overtakes reports whether serving r now would pass an earlier waiting
// request it must stay behind: one on the same stripe whose range
// overlaps r's, unless both only read.
func overtakes(r *request, earlier []request) bool {
	for i := range earlier {
		e := &earlier[i]
		if !e.member && e.stripe == r.stripe && (e.write || r.write) &&
			e.off < r.end && r.off < e.end {
			return true
		}
	}
	return false
}

// fail records err as c's error unless an earlier one is recorded.
func (c *call) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// complete records that one of c's requests is in service and will be
// done at done; the last one tells the caller when to wake.
func (s *SimStore) complete(c *call, done time.Time) {
	if done.After(c.done) {
		c.done = done
	}
	if c.pending--; c.pending == 0 {
		// A caller parked on the virtual clock is re-armed to wake at
		// c.done, so a queued request parks once. The send comes last:
		// after it the caller may recycle c.
		s.clk.WakeupAt(c.ready, c.done)
		c.ready <- struct{}{}
	}
}

// await blocks until c's last request is dispatched and its completion
// time has passed, then recycles c.
func (s *SimStore) await(c *call) error {
	sim.Recv(context.Background(), s.clk, c.ready, nil, time.Time{})
	s.clk.SleepUntil(context.Background(), c.done)
	err := c.err
	*c = call{ready: c.ready}
	callPool.Put(c)
	return err
}
