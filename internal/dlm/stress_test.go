package dlm

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// revStressNotifier checks the revoker's two delivery guarantees from
// the receiving side: per-client callbacks never overlap, and the
// revocations of one (client, producer) pair arrive in enqueue order.
// Producer and sequence number ride in the LockID.
type revStressNotifier struct {
	t         *testing.T
	active    []atomic.Int32
	delivered atomic.Int64
	mu        sync.Mutex
	lastSeq   map[[2]int]int
}

func (n *revStressNotifier) Handoff(context.Context, ClientID, ResourceID, LockID, LockID) {}
func (n *revStressNotifier) SolicitAck(context.Context, ClientID, ResourceID, LockID)      {}

func (n *revStressNotifier) RevokeBatch(_ context.Context, client ClientID, revs []Revocation) {
	if n.active[client].Add(1) != 1 {
		n.t.Errorf("client %d: concurrent deliveries overlap", client)
	}
	for _, rv := range revs {
		p := int(rv.Lock) / 1_000_000
		seq := int(rv.Lock) % 1_000_000
		n.mu.Lock()
		k := [2]int{int(client), p}
		if last, ok := n.lastSeq[k]; ok && seq <= last {
			n.t.Errorf("client %d producer %d: seq %d after %d (order lost)", client, p, seq, last)
		}
		n.lastSeq[k] = seq
		n.mu.Unlock()
	}
	n.delivered.Add(int64(len(revs)))
	n.active[client].Add(-1)
}

// TestRevokerMPSCStress hammers the revoker's enqueue from many
// producers at once (each client's pending list has many producers and
// one consumer, the client's delivery coroutine): enqueues racing
// deliveries of the same client, delivery coroutines starting and
// retiring, and the post-delivery recheck that must never strand a
// revocation, across 16 clients. Every enqueued
// revocation must be delivered exactly once, in per-producer order,
// with per-client deliveries serialized, and the backlog gauge must
// converge to zero. Run with -race.
func TestRevokerMPSCStress(t *testing.T) {
	const (
		producers   = 8
		nclients    = 16
		perProducer = 400
	)
	s := NewServer(SeqDLM(), nil)
	n := &revStressNotifier{
		t:       t,
		active:  make([]atomic.Int32, nclients+1),
		lastSeq: make(map[[2]int]int),
	}
	s.SetNotifier(n)

	var wg sync.WaitGroup
	total := int64(0)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		total += perProducer
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			seq := make([]int, nclients+1)
			sent := 0
			for sent < perProducer {
				// A scan's worth of revocations: 1–3 clients, one each.
				batch := make([]Revocation, 0, 3)
				for k := 0; k < 1+rng.Intn(3) && sent < perProducer; k++ {
					c := ClientID(1 + rng.Intn(nclients))
					batch = append(batch, Revocation{
						Client:   c,
						Resource: 1,
						Lock:     LockID(p*1_000_000 + seq[c]),
					})
					seq[c]++
					sent++
				}
				s.revoker.enqueue(batch)
			}
		}(p)
	}
	wg.Wait()

	waitFor(t, "all revocations delivered", func() bool {
		return n.delivered.Load() == total
	})
	waitFor(t, "revoke backlog drained", func() bool {
		return s.Stats.RevokeQueue.Load() == 0
	})
	if got := n.delivered.Load(); got != total {
		t.Fatalf("delivered = %d, want %d", got, total)
	}
}

// TestAllocBudgetRevokeDelivery: scheduling a delivery to an idle
// client starts its delivery coroutine as a Task on an idle worker and
// queues into the array the client's last batch used, so after warm-up
// it allocates nothing.
func TestAllocBudgetRevokeDelivery(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	s := NewServer(SeqDLM(), nil)
	s.SetClock(clk)
	delivered := new(int)
	s.SetNotifier(NotifierFunc(func(context.Context, Revocation) { v.Wakeup(delivered) }))
	revs := []Revocation{{Client: 2, Resource: 1, Lock: 7}}
	var n float64
	v.Run(func() {
		// The delivery runs on until it retires before the waiter
		// resumes, so every round finds the client idle.
		round := func() {
			s.revoker.enqueue(revs)
			v.WaitOn(delivered)
		}
		round()
		clk.Sleep(time.Microsecond) // the first delivery's worker is idle
		n = testing.AllocsPerRun(200, round)
	})
	if n != 0 {
		t.Errorf("revocation to an idle client: %.1f allocs, want 0", n)
	}
	if s.revoker.clients[2].scheduled {
		t.Error("client still scheduled after its deliveries")
	}
}

// TestRevokerDropsLargeBatchArray: a client keeps a delivered batch's
// array for reuse only when the batch held at most keepBatch entries, so
// one release storm does not pin its array for the server's life.
func TestRevokerDropsLargeBatchArray(t *testing.T) {
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	s := NewServer(SeqDLM(), nil)
	s.SetClock(clk)
	s.SetNotifier(NotifierFunc(func(context.Context, Revocation) {}))
	deliver := func(n int) *revClient {
		revs := make([]Revocation, n)
		for i := range revs {
			revs[i] = Revocation{Client: 2, Resource: 1, Lock: LockID(i + 1)}
		}
		s.revoker.enqueue(revs)
		clk.Sleep(time.Microsecond) // the delivery retires
		return s.revoker.clients[2]
	}
	v.Run(func() {
		if rc := deliver(keepBatch); cap(rc.spare) < keepBatch {
			t.Errorf("a %d-entry batch's array was not kept: spare cap %d", keepBatch, cap(rc.spare))
		}
		if rc := deliver(keepBatch + 1); rc.spare != nil {
			t.Errorf("a %d-entry batch's array was kept: spare cap %d", keepBatch+1, cap(rc.spare))
		}
	})
}

// TestClientCacheRCUChurn races the cached-hit path (readers of the
// client's handle lists) against everything that updates them:
// revocations (another client's conflicting PW), absorption (PR/NBW
// mixes upgrading into PW), and the cancel path removing handles. Lost
// holds, double cancels, or leaked handles surface as a panic, a hung
// ReleaseAll, or a race report. Run with -race.
func TestClientCacheRCUChurn(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	c1, c2 := h.client(1), h.client(2)
	const resources = 4

	stop := make(chan struct{})
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := ResourceID(1 + rng.Intn(resources))
				mode := NBW
				if rng.Intn(3) == 0 {
					mode = PR // PR/NBW mixes force upgrades + absorption
				}
				hd, err := c1.Acquire(context.Background(), res, mode, extent.New(0, 1<<20))
				if err != nil {
					t.Error(err)
					return
				}
				c1.Unlock(hd)
			}
		}(int64(w) + 1)
	}

	// The antagonist: conflicting PW grants revoke c1's cached locks,
	// driving revoke → cancel → release → re-acquire churn.
	for i := 0; i < 120; i++ {
		hd, err := c2.Acquire(context.Background(), ResourceID(1+i%resources), PW, extent.New(0, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		c2.Unlock(hd)
	}
	close(stop)
	workers.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c1.ReleaseAll(ctx); err != nil {
		t.Fatalf("c1.ReleaseAll: %v (leaked hold or lost cancel)", err)
	}
	if err := c2.ReleaseAll(ctx); err != nil {
		t.Fatalf("c2.ReleaseAll: %v", err)
	}
	for r := 1; r <= resources; r++ {
		if n := c1.CachedLocks(ResourceID(r)); n != 0 {
			t.Fatalf("resource %d: %d handles cached after ReleaseAll", r, n)
		}
	}
}

// TestClientCachedHitAllocFree locks in the hit path's allocation
// profile: a cached-lock hit (one step under the client mutex) and its
// Unlock (one more step) must not allocate.
func TestClientCachedHitAllocFree(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	hd := mustAcquire(t, c, 1, NBW, extent.New(0, 1<<20))
	c.Unlock(hd)

	n := testing.AllocsPerRun(500, func() {
		g, err := c.Acquire(context.Background(), 1, NBW, extent.New(0, 4096))
		if err != nil {
			t.Fatal(err)
		}
		c.Unlock(g)
	})
	if n != 0 {
		t.Fatalf("cached hit allocates %.1f times per op, want 0", n)
	}
}

// TestAllocBudgetConflictScan: a scan pass over a writer blocked by a
// cohort of other clients' readers — revocations already sent — gathers
// the conflicts and the blocked set into the resource's scratch, and
// the writer's expansion probe walks both trees with a stack array, so
// after warm-up neither allocates.
func TestAllocBudgetConflictScan(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s := NewServer(SeqDLM(), NotifierFunc(func(context.Context, Revocation) {}))
	defer s.Shutdown()
	res := &resource{id: 1}
	enqueue := func(c ClientID, m Mode, lo, hi int64) *waiter {
		w := &waiter{ch: make(chan lockResult, 1), req: Request{Resource: 1, Client: c, Mode: m, Range: extent.New(lo, hi)}}
		res.mu.Lock()
		s.step(res, &event{kind: evEnqueue, w: w}, &effects{})
		res.mu.Unlock()
		return w
	}
	// Reader c asks for the block at (c-1)*4096 and is expanded to EOF,
	// so every reader overlaps the writer and all but the first start
	// past its range, where the expansion probe walks.
	for c := ClientID(1); c <= 8; c++ {
		enqueue(c, PR, int64(c-1)*4096, int64(c)*4096)
	}
	w := enqueue(9, NBW, 0, 4096)
	if w.done || res.granted.len() != 8 {
		t.Fatalf("writer done %v with %d locks granted, want it blocked by 8 readers", w.done, res.granted.len())
	}
	fx := &effects{}
	scan := func() {
		res.mu.Lock()
		s.scan(res, fx)
		res.mu.Unlock()
	}
	scan()
	if len(fx.revs) != 0 || len(fx.sends) != 0 {
		t.Fatalf("a repeated scan decided %d revocations, %d grants; want none", len(fx.revs), len(fx.sends))
	}
	if a := testing.AllocsPerRun(200, scan); a != 0 {
		t.Errorf("scan of a blocked writer: %.1f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { s.expandEnd(res, w, NBW, w.req.Range) }); a != 0 {
		t.Errorf("expansion probe: %.1f allocs, want 0", a)
	}
}
