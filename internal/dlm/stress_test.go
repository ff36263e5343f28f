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

func (n *revStressNotifier) Handoff(context.Context, ClientID, ResourceID, LockID)    {}
func (n *revStressNotifier) SolicitAck(context.Context, ClientID, ResourceID, LockID) {}

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
// one consumer, the lane worker delivering to it): enqueues racing
// deliveries of the same client, lane workers spawning and retiring,
// and the post-delivery recheck that must never strand a revocation. 16
// clients keep all DefaultRevokeWorkers lanes busy. Every enqueued
// revocation must be delivered exactly once, in per-producer order,
// with per-client deliveries serialized, and the backlog gauge must
// converge to zero. Run with -race.
func TestRevokerMPSCStress(t *testing.T) {
	const (
		producers   = 8
		nclients    = 2 * DefaultRevokeWorkers
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
