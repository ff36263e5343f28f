package dlm

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccpfs/internal/extent"
)

// randReq builds a random request for the equivalence tests: usually a
// plain range, sometimes a non-contiguous extent set whose bounds form
// the range (the invariant Lock validation enforces).
func randReq(rng *rand.Rand, client ClientID, mode Mode) Request {
	start := int64(rng.Intn(400))
	length := int64(1 + rng.Intn(80))
	req := Request{Resource: 1, Client: client, Mode: mode, Range: extent.Extent{Start: start, End: start + length}}
	if rng.Intn(4) == 0 {
		// Two disjoint extents inside the range.
		mid := start + 1 + int64(rng.Intn(int(length)))
		a := extent.Extent{Start: start, End: mid}
		b := extent.Extent{Start: mid + int64(rng.Intn(10)), End: start + length}
		set := extent.Set{a}
		if b.Start < b.End {
			set = append(set, b)
		}
		req.Extents = set
		bounds, _ := set.Bounds()
		req.Range = bounds
	}
	return req
}

// linearConflicts, linearMinSN, linearQueueConflict and linearExpandEnd
// are the grant engine's conflict, mSN, early-revocation and expansion
// queries as it answered them before the interval indexes: a walk over
// the whole granted set or queue. Kept as the reference for
// TestIndexedMatchesLinearScan.
func linearConflicts(s *Server, res *resource, w *waiter, m Mode) []*lock {
	var out []*lock
	for _, l := range res.granted.list {
		if l.overlapsReq(&w.req) && !s.compatible(m, l) {
			out = append(out, l)
		}
	}
	return out
}

func linearMinSN(res *resource, rng extent.Extent) (extent.SN, bool) {
	var msn extent.SN
	found := false
	for _, l := range res.granted.list {
		if l.mode.IsWrite() && l.overlapsExtent(rng) && (!found || l.sn < msn) {
			msn, found = l.sn, true
		}
	}
	return msn, found
}

func linearQueueConflict(res *resource, w *waiter, mode Mode, rng extent.Extent) bool {
	for _, other := range res.queue {
		if other == w || other.done {
			continue
		}
		if !other.req.Range.Overlaps(rng) && !(len(other.req.Extents) > 0 && other.req.Extents.OverlapsExtent(rng)) {
			continue
		}
		if !Compatible(other.req.Mode, mode, Granted) {
			return true
		}
	}
	return false
}

func linearExpandEnd(s *Server, res *resource, w *waiter, mode Mode, rng extent.Extent) int64 {
	if s.policy.Expand == ExpandNone {
		return rng.End
	}
	end := extent.Inf
	for _, l := range res.granted.list {
		if l.rng.Start < rng.End || l.rng.Start >= end {
			continue
		}
		otherCanceling := l.state == Canceling && l.mode.IsWrite() && l.client != w.req.Client
		if !s.compatible(mode, l) || mode.IsWrite() && otherCanceling {
			end = l.rng.Start
		}
	}
	for _, other := range res.queue {
		if other == w || other.done {
			continue
		}
		if other.req.Range.Start >= rng.End && other.req.Range.Start < end &&
			!Compatible(other.req.Mode, mode, Granted) {
			end = other.req.Range.Start
		}
	}
	if s.policy.Expand == ExpandLustre && res.grants > s.policy.LustreLockThreshold {
		end = min(end, max(rng.Start+s.policy.LustreCapBytes, rng.End))
	}
	return max(end, rng.End)
}

// TestIndexedMatchesLinearScan is the index property test: on random
// granted sets and queues, the interval-indexed conflicts, MinSN,
// queueConflict, and expandEnd answers must equal the brute-force
// linear-scan references above exactly.
func TestIndexedMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	modes := []Mode{PR, NBW, BW, PW}
	states := []State{Granted, Canceling}

	for trial := 0; trial < 60; trial++ {
		s := NewServer(SeqDLM(), NotifierFunc(func(context.Context, Revocation) {}))
		res := s.resource(1)

		// Random granted population, installed directly so arbitrary
		// (even unreachable) state combinations get covered.
		n := 1 + rng.Intn(120)
		for i := 0; i < n; i++ {
			req := randReq(rng, ClientID(1+rng.Intn(6)), modes[rng.Intn(len(modes))])
			l := &lock{
				id:         LockID(i + 1),
				client:     req.Client,
				mode:       req.Mode,
				rng:        req.Range,
				set:        req.Extents,
				state:      states[rng.Intn(2)],
				sn:         extent.SN(rng.Intn(40)),
				revokeSent: true,
			}
			if l.state == Granted {
				l.revokeSent = rng.Intn(2) == 0
			}
			res.granted.insert(l)
		}
		// Random live queue for queueConflict/expandEnd coverage.
		for i := 0; i < rng.Intn(20); i++ {
			w := &waiter{
				req: randReq(rng, ClientID(1+rng.Intn(6)), modes[rng.Intn(len(modes))]),
				key: res.wseq,
			}
			res.wseq++
			res.queue = append(res.queue, w)
			res.wtree.Insert(w.req.Range, w.key, w)
		}

		for q := 0; q < 40; q++ {
			mode := modes[rng.Intn(len(modes))]
			probe := &waiter{req: randReq(rng, ClientID(1+rng.Intn(6)), mode)}

			fast := s.conflicts(res, probe, mode)
			slow := linearConflicts(s, res, probe, mode)
			if len(fast) != len(slow) {
				t.Fatalf("conflicts size: indexed %d vs linear %d (req %+v)", len(fast), len(slow), probe.req)
			}
			got := map[LockID]bool{}
			for _, l := range fast {
				got[l.id] = true
			}
			for _, l := range slow {
				if !got[l.id] {
					t.Fatalf("conflicts: linear found lock %d the index missed (req %+v)", l.id, probe.req)
				}
			}

			pstart := int64(rng.Intn(450))
			e := extent.Extent{Start: pstart, End: pstart + 1 + int64(rng.Intn(60))}
			fsn, fok := s.MinSN(1, e)
			ssn, sok := linearMinSN(res, e)
			if fsn != ssn || fok != sok {
				t.Fatalf("MinSN(%v): indexed (%d,%v) vs linear (%d,%v)", e, fsn, fok, ssn, sok)
			}

			res.mu.Lock()
			fqc := s.queueConflict(res, probe, mode, e)
			fend := s.expandEnd(res, probe, mode, e)
			sqc := linearQueueConflict(res, probe, mode, e)
			send := linearExpandEnd(s, res, probe, mode, e)
			res.mu.Unlock()
			if fqc != sqc {
				t.Fatalf("queueConflict(%v, %v): indexed %v vs linear %v", mode, e, fqc, sqc)
			}
			if fend != send {
				t.Fatalf("expandEnd(%v, %v): indexed %d vs linear %d", mode, e, fend, send)
			}
		}
	}
}

// tiledPolicy turns off range expansion so distinct clients can hold
// adjacent tiles without the first grant swallowing the keyspace.
func tiledPolicy() Policy {
	p := SeqDLM()
	p.Expand = ExpandNone
	return p
}

// grantTiles grants count adjacent NBW tiles of width w on res, one per
// distinct client starting at firstClient, and returns the lock IDs.
func grantTiles(t testing.TB, s *Server, res ResourceID, count int, w int64, firstClient ClientID) []LockID {
	t.Helper()
	ids := make([]LockID, count)
	for i := 0; i < count; i++ {
		g, err := s.Lock(context.Background(), Request{
			Resource: res,
			Client:   firstClient + ClientID(i),
			Mode:     NBW,
			Range:    extent.Extent{Start: int64(i) * w, End: int64(i+1) * w},
		})
		if err != nil {
			t.Fatalf("tile %d: %v", i, err)
		}
		ids[i] = g.LockID
	}
	return ids
}

// TestReleaseManyLocksNotQuadratic guards the granted set's indexes as
// it grows. Releasing a large granted set must scale near-linearly: a
// quadratic release (the old linear find + slice splice) grows per-op
// cost ~16x from 2k to 32k locks, where the LockID map keeps the ratio
// near 1. A conflict-free grant+release just past the last tile must
// stay near-constant too: the interval tree probes only the locks that
// can overlap it, where a scan of the granted set would also grow ~16x.
// Even heavy timer noise stays far below the 8x failure threshold.
func TestReleaseManyLocksNotQuadratic(t *testing.T) {
	const reps = 2_000
	perOp := func(n int) (grant, release time.Duration) {
		s := NewServer(tiledPolicy(), NotifierFunc(func(context.Context, Revocation) {}))
		ids := grantTiles(t, s, 1, n, 64, 2)
		past := Request{Resource: 1, Client: 1, Mode: NBW, Range: extent.Extent{Start: int64(n) * 64, End: int64(n+1) * 64}}
		start := time.Now()
		for i := 0; i < reps; i++ {
			g, err := s.Lock(context.Background(), past)
			if err != nil {
				t.Fatal(err)
			}
			s.Release(1, g.LockID)
		}
		grant = time.Since(start) / reps
		rng := rand.New(rand.NewSource(int64(n)))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		start = time.Now()
		for _, id := range ids {
			s.Release(1, id)
		}
		release = time.Since(start) / time.Duration(n)
		if got := s.GrantedCount(1); got != 0 {
			t.Fatalf("granted after release-all = %d", got)
		}
		return grant, release
	}
	smallGrant, smallRelease := perOp(2_000)
	bigGrant, bigRelease := perOp(32_000)
	for _, c := range []struct {
		what       string
		small, big time.Duration
	}{
		{"grant+release past the tiles", smallGrant, bigGrant},
		{"release", smallRelease, bigRelease},
	} {
		if ratio := float64(c.big) / float64(max(c.small, time.Nanosecond)); ratio > 8 {
			t.Errorf("%s per-op grew %.1fx from 2k to 32k locks (%v -> %v): not sublinear", c.what, ratio, c.small, c.big)
		}
	}
}

// TestRevocationFanOutAllAtOnce asserts the revoker's fan-out: a
// conflict revoking many distinct holders has every holder's delivery
// in flight at once (a gather costs one round trip, not one per pool
// slot), and each revocation is delivered exactly once.
func TestRevocationFanOutAllAtOnce(t *testing.T) {
	const holders = 64
	var (
		cur       atomic.Int64
		mu        sync.Mutex
		peak      int64
		delivered = make(map[LockID]int)
		gate      = make(chan struct{})
	)
	s := NewServer(tiledPolicy(), nil)
	s.SetNotifier(NotifierFunc(func(_ context.Context, rv Revocation) {
		c := cur.Add(1)
		mu.Lock()
		peak = max(peak, c)
		delivered[rv.Lock]++
		mu.Unlock()
		<-gate
		cur.Add(-1)
		s.RevokeAck(rv.Resource, rv.Lock)
		s.Release(rv.Resource, rv.Lock)
	}))
	ids := grantTiles(t, s, 1, holders, 64, 2)

	done := make(chan error, 1)
	go func() {
		_, err := s.Lock(context.Background(), Request{
			Resource: 1, Client: 1, Mode: PW,
			Range: extent.Extent{Start: 0, End: holders * 64},
		})
		done <- err
	}()
	// Every holder's delivery must be in flight before any returns.
	waitFor(t, "every delivery in flight", func() bool { return cur.Load() == holders })
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != holders {
		t.Fatalf("peak concurrent deliveries = %d, want %d", peak, holders)
	}
	if len(delivered) != holders {
		t.Fatalf("%d distinct locks revoked, want %d", len(delivered), holders)
	}
	for _, id := range ids {
		if n := delivered[id]; n != 1 {
			t.Errorf("lock %d delivered %d times, want 1", id, n)
		}
	}
	if got := s.Stats.Revocations.Load(); got != holders {
		t.Fatalf("revocations = %d, want %d", got, holders)
	}
}

// countingBatchNotifier acks and force-releases every revocation (an
// in-process stand-in for the data server's vanished-holder path) while
// counting individual revocations and batched deliveries. Its engines
// never delegate, so it has nothing to activate or solicit.
type countingBatchNotifier struct {
	s       *Server
	batches atomic.Int64
	revs    atomic.Int64
}

func (n *countingBatchNotifier) Handoff(context.Context, ClientID, ResourceID, Transfer)  {}
func (n *countingBatchNotifier) SolicitAck(context.Context, ClientID, ResourceID, LockID) {}

func (n *countingBatchNotifier) RevokeBatch(_ context.Context, _ ClientID, revs []Revocation) {
	n.batches.Add(1)
	n.revs.Add(int64(len(revs)))
	for _, rv := range revs {
		n.s.RevokeAck(rv.Resource, rv.Lock)
		n.s.Release(rv.Resource, rv.Lock)
	}
}

// TestRevocationsBatchedPerClient verifies the batching factor: a
// conflict revoking many locks of ONE client coalesces into a single
// notifier send carrying all of them, and the engine's counters agree
// (Revocations = locks, RevokeBatches = deliveries).
func TestRevocationsBatchedPerClient(t *testing.T) {
	const locks = 100
	s := NewServer(tiledPolicy(), nil)
	n := &countingBatchNotifier{s: s}
	s.SetNotifier(n)

	// One client holds every tile. Same-client tiles do not upgrade into
	// one lock here because conversion only merges on conflict, and
	// non-overlapping tiles never conflict.
	for i := 0; i < locks; i++ {
		if _, err := s.Lock(context.Background(), Request{
			Resource: 1, Client: 9, Mode: NBW,
			Range: extent.Extent{Start: int64(i) * 64, End: int64(i+1) * 64},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Lock(context.Background(), Request{
		Resource: 1, Client: 1, Mode: PW,
		Range: extent.Extent{Start: 0, End: locks * 64},
	}); err != nil {
		t.Fatal(err)
	}
	if got := n.revs.Load(); got != locks {
		t.Fatalf("delivered revocations = %d, want %d", got, locks)
	}
	if got := n.batches.Load(); got != 1 {
		t.Fatalf("notifier sends = %d, want 1 (batching factor %d lost)", got, locks)
	}
	if got := s.Stats.Revocations.Load(); got != locks {
		t.Fatalf("Stats.Revocations = %d, want %d", got, locks)
	}
	if got := s.Stats.RevokeBatches.Load(); got != 1 {
		t.Fatalf("Stats.RevokeBatches = %d, want 1", got)
	}
	if got := s.Stats.Snapshot().CoalescingFactor(); got != locks {
		t.Fatalf("CoalescingFactor = %v, want %d", got, locks)
	}
	if got := (Snapshot{}).CoalescingFactor(); got != 0 {
		t.Fatalf("CoalescingFactor before any batch = %v, want 0", got)
	}
}

// TestHotResourceChurnStress hammers one resource with concurrent
// Acquire/Unlock churn across modes — driving Lock, Downgrade, Release,
// and RevokeAck through the real client cancel path — while a
// cleanup-daemon-style poller queries MinSN and the invariant checker
// in a loop. Run under -race this is the engine's memory-model test.
func TestHotResourceChurnStress(t *testing.T) {
	const (
		workers = 8
		opsEach = 250
		res     = ResourceID(1)
	)
	h := newHarness(t, SeqDLM(), workers)

	stop := make(chan struct{})
	var daemon sync.WaitGroup
	daemon.Add(1)
	go func() {
		defer daemon.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			off := int64(rng.Intn(1 << 14))
			h.srv.MinSN(res, extent.Extent{Start: off, End: off + 4096})
			if err := h.srv.CheckInvariants(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	modes := []Mode{PR, NBW, BW}
	for wk := 1; wk <= workers; wk++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			c := h.client(id)
			for i := 0; i < opsEach; i++ {
				mode := modes[rng.Intn(len(modes))]
				off := int64(rng.Intn(1<<14)) &^ 511
				hd, err := c.Acquire(context.Background(), res, mode, extent.Extent{Start: off, End: off + 512})
				if err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
				c.Unlock(hd)
				if rng.Intn(16) == 0 {
					c.ReleaseAll(context.Background())
				}
			}
		}(wk)
	}
	wg.Wait()
	close(stop)
	daemon.Wait()

	for i := 1; i <= workers; i++ {
		h.client(i).ReleaseAll(context.Background())
	}
	waitFor(t, "granted set to drain", func() bool { return h.srv.GrantedCount(res) == 0 })
	if err := h.srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// blockEntry, blockedByEarlier and reqsOverlap are the waiter-queue
// fairness test as scan ran it before blockedSet: each waiter against
// every earlier blocked waiter, pairwise. Kept as the reference for
// TestBlockedSetMatchesPairwiseScan.
type blockEntry struct {
	mode Mode
	req  *Request
}

func blockedByEarlier(blocked []blockEntry, r *Request) bool {
	for _, b := range blocked {
		if !reqsOverlap(b.req, r) {
			continue
		}
		if !Compatible(r.Mode, b.mode, Granted) || !Compatible(b.mode, r.Mode, Granted) {
			return true
		}
	}
	return false
}

func reqsOverlap(a, b *Request) bool {
	if len(a.Extents) > 0 && len(b.Extents) > 0 {
		return a.Extents.Overlaps(b.Extents)
	}
	if len(a.Extents) > 0 {
		return a.Extents.OverlapsExtent(b.Range)
	}
	if len(b.Extents) > 0 {
		return b.Extents.OverlapsExtent(a.Range)
	}
	return a.Range.Overlaps(b.Range)
}

// TestBlockedSetMatchesPairwiseScan is the property test for scan's
// fairness rule: over random queues of mixed modes, plain ranges
// (some repeated, some open-ended) and extent sets, one pass that keeps
// its blocked waiters in a blockedSet gives every waiter the verdict the
// pairwise reference gives it. What tryGrant would say of a waiter that
// is not blocked by an earlier one is drawn at random: the rule must
// hold whatever it is.
func TestBlockedSetMatchesPairwiseScan(t *testing.T) {
	modes := []Mode{PR, NBW, BW, PW}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		queue := make([]Request, 1+rng.Intn(60))
		for i := range queue {
			queue[i] = randReq(rng, ClientID(1+rng.Intn(8)), modes[rng.Intn(len(modes))])
			switch r := &queue[i]; {
			case i > 0 && rng.Intn(3) == 0:
				// Many waiters on one range: the case the set collapses.
				r.Range, r.Extents = queue[rng.Intn(i)].Range, nil
			case len(r.Extents) == 0 && rng.Intn(8) == 0:
				r.Range.End = extent.Inf
			}
		}
		var ref []blockEntry
		var set blockedSet
		for i := range queue {
			r := &queue[i]
			want := blockedByEarlier(ref, r)
			if got := set.blocks(r); got != want {
				t.Fatalf("seed %d: waiter %d (%v %v %v) blocked = %v, pairwise reference says %v", seed, i, r.Mode, r.Range, r.Extents, got, want)
			}
			if want || rng.Intn(2) == 0 {
				ref = append(ref, blockEntry{mode: r.Mode, req: r})
				set.add(r)
			}
		}
	}
}
