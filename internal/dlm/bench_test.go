package dlm

import (
	"context"
	"sync"
	"testing"

	"ccpfs/internal/extent"
)

// benchHarness wires a server and clients without testing.T plumbing.
func benchHarness(policy Policy, nclients int) (*Server, []*LockClient) {
	srv := NewServer(policy, nil)
	clients := make([]*LockClient, nclients)
	byID := make(map[ClientID]*LockClient, nclients)
	srv.SetNotifier(NotifierFunc(func(_ context.Context, rv Revocation) {
		if c, ok := byID[rv.Client]; ok {
			c.OnRevoke(rv.Resource, rv.Lock)
		}
		srv.RevokeAck(rv.Resource, rv.Lock)
	}))
	router := func(ResourceID) ServerConn { return directConn{srv} }
	noFlush := FlusherFunc(func(context.Context, ResourceID, extent.Extent, extent.SN) error { return nil })
	for i := range clients {
		id := ClientID(i + 1)
		clients[i] = NewLockClient(id, policy, router, noFlush)
		byID[id] = clients[i]
	}
	return srv, clients
}

// BenchmarkGrantUncontended measures the pure engine cost of a cached
// grant hit.
func BenchmarkGrantUncontended(b *testing.B) {
	_, clients := benchHarness(SeqDLM(), 1)
	c := clients[0]
	h, err := c.Acquire(context.Background(), 1, NBW, extent.New(0, 100))
	if err != nil {
		b.Fatal(err)
	}
	c.Unlock(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := c.Acquire(context.Background(), 1, NBW, extent.New(0, 100))
		if err != nil {
			b.Fatal(err)
		}
		c.Unlock(h)
	}
}

// BenchmarkGrantFreshResource measures an uncached grant round through
// the engine (no conflicts).
func BenchmarkGrantFreshResource(b *testing.B) {
	srv, _ := benchHarness(SeqDLM(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := srv.Lock(context.Background(), Request{
			Resource: ResourceID(i + 1),
			Client:   1,
			Mode:     NBW,
			Range:    extent.New(0, 100),
		})
		if err != nil {
			b.Fatal(err)
		}
		srv.Release(ResourceID(i+1), g.LockID)
	}
}

// BenchmarkConflictResolutionSeqDLM measures the full early-grant
// conflict round: two clients alternately take the same whole-range NBW
// lock (revocation, ack, early grant, async cancel).
func BenchmarkConflictResolutionSeqDLM(b *testing.B) {
	_, clients := benchHarness(SeqDLM(), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clients[i%2]
		h, err := c.Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
		if err != nil {
			b.Fatal(err)
		}
		c.Unlock(h)
	}
	b.StopTimer()
	for _, c := range clients {
		c.ReleaseAll(context.Background())
	}
}

// BenchmarkConflictResolutionBasic is the traditional normal-grant
// equivalent (full release on every handover).
func BenchmarkConflictResolutionBasic(b *testing.B) {
	_, clients := benchHarness(Basic(), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clients[i%2]
		h, err := c.Acquire(context.Background(), 1, PW, extent.New(0, extent.Inf))
		if err != nil {
			b.Fatal(err)
		}
		c.Unlock(h)
	}
	b.StopTimer()
	for _, c := range clients {
		c.ReleaseAll(context.Background())
	}
}

// BenchmarkUpgradeRound measures the same-client PR/NBW upgrade cycle.
func BenchmarkUpgradeRound(b *testing.B) {
	_, clients := benchHarness(SeqDLM(), 1)
	c := clients[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ResourceID(i + 1)
		w, err := c.Acquire(context.Background(), res, NBW, extent.New(0, 100))
		if err != nil {
			b.Fatal(err)
		}
		c.Unlock(w)
		r, err := c.Acquire(context.Background(), res, PR, extent.New(0, 100)) // upgrades to PW
		if err != nil {
			b.Fatal(err)
		}
		c.Unlock(r)
	}
}

// BenchmarkContendedParallel measures aggregate grant throughput with
// many clients hammering one resource.
func BenchmarkContendedParallel(b *testing.B) {
	const nclients = 8
	_, clients := benchHarness(SeqDLM(), nclients)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/nclients + 1
	for _, c := range clients {
		wg.Add(1)
		go func(c *LockClient) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h, err := c.Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
				if err != nil {
					b.Error(err)
					return
				}
				c.Unlock(h)
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	for _, c := range clients {
		c.ReleaseAll(context.Background())
	}
}
