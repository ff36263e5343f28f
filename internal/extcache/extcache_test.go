package extcache

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
)

func TestApplyUpdateSetOrdering(t *testing.T) {
	c := New(0, false)
	// Reproduce the Fig. 15 routine: cached S[0,4K,8]; incoming blocks
	// D[0,2K,7], D[2K,4K,9], D[4K,8K,9].
	c.Apply(1, extent.New(0, 4096), 8)

	if won := c.Apply(1, extent.New(0, 2048), 7); len(won) != 0 {
		t.Fatalf("stale block won: %v", won)
	}
	won := c.Apply(1, extent.New(2048, 4096), 9)
	if len(won) != 1 || won[0].Extent != extent.New(2048, 4096) || won[0].SN != 9 {
		t.Fatalf("update set = %v, want [2K,4K)@9", won)
	}
	won = c.Apply(1, extent.New(4096, 8192), 9)
	if len(won) != 1 || won[0].Extent != extent.New(4096, 8192) {
		t.Fatalf("update set = %v, want [4K,8K)@9", won)
	}
	// Final state: [0,2K)@8, [2K,8K)@9 (merged).
	if sn, _ := c.MaxSN(1, extent.New(0, 2048)); sn != 8 {
		t.Fatalf("SN[0,2K) = %d, want 8", sn)
	}
	if sn, _ := c.MaxSN(1, extent.New(2048, 8192)); sn != 9 {
		t.Fatalf("SN[2K,8K) = %d, want 9", sn)
	}
	if c.Entries() != 2 {
		t.Fatalf("entries = %d, want 2 (adjacent same-SN merged)", c.Entries())
	}
}

func TestOutOfOrderFlushKeepsNewest(t *testing.T) {
	c := New(0, false)
	// Newer flush arrives first.
	c.Apply(1, extent.New(0, 1024), 5)
	won := c.Apply(1, extent.New(0, 1024), 3)
	if len(won) != 0 {
		t.Fatal("older flush overwrote newer data")
	}
	// Equal SN (same lock, later local write) wins.
	won = c.Apply(1, extent.New(0, 512), 5)
	if len(won) != 1 {
		t.Fatal("equal-SN rewrite lost")
	}
}

func TestEntriesAndBytes(t *testing.T) {
	c := New(0, false)
	c.Apply(1, extent.New(0, 10), 1)
	c.Apply(1, extent.New(100, 110), 2)
	c.Apply(2, extent.New(0, 10), 1)
	if c.Entries() != 3 {
		t.Fatalf("entries = %d, want 3", c.Entries())
	}
	if c.Bytes() != 3*extent.EntrySize {
		t.Fatalf("bytes = %d", c.Bytes())
	}
}

func TestNeedsCleanupThreshold(t *testing.T) {
	c := New(4, false)
	for i := int64(0); i < 4; i++ {
		c.Apply(1, extent.Span(i*100, 10), extent.SN(i+1))
	}
	if c.NeedsCleanup() {
		t.Fatal("cleanup triggered at threshold")
	}
	c.Apply(1, extent.Span(1000, 10), 9)
	if !c.NeedsCleanup() {
		t.Fatal("cleanup not triggered above threshold")
	}
}

func TestCleanupRoundRemovesOnlyBelowMSN(t *testing.T) {
	c := New(0, false)
	for i := int64(0); i < 10; i++ {
		c.Apply(1, extent.Span(i*100, 50), extent.SN(i+1))
	}
	// mSN = 5: entries with SN <= 5 are removable.
	minSN := func(stripe uint64, rng extent.Extent) (extent.SN, bool) { return 5, true }
	removed := c.CleanupRound(minSN)
	if removed != 5 {
		t.Fatalf("removed %d entries, want 5", removed)
	}
	if c.Entries() != 5 {
		t.Fatalf("entries = %d, want 5", c.Entries())
	}
	// No unreleased locks: everything is removable.
	removed = c.CleanupRound(func(uint64, extent.Extent) (extent.SN, bool) { return 0, false })
	// The cursor may need a wrap-around round to see the start again.
	removed += c.CleanupRound(func(uint64, extent.Extent) (extent.SN, bool) { return 0, false })
	if c.Entries() != 0 {
		t.Fatalf("entries = %d after full cleanup (removed %d)", c.Entries(), removed)
	}
}

func TestCleanupRespectsBatchLimit(t *testing.T) {
	c := New(0, false)
	for i := int64(0); i < int64(BatchLimit)+500; i++ {
		c.Apply(1, extent.Span(i*10, 5), extent.SN(i+1))
	}
	removed := c.CleanupRound(func(uint64, extent.Extent) (extent.SN, bool) { return 0, false })
	if removed > BatchLimit {
		t.Fatalf("one round removed %d > BatchLimit", removed)
	}
}

func TestForceSync(t *testing.T) {
	c := New(0, false)
	c.Apply(1, extent.New(0, 100), 1)
	c.Apply(2, extent.New(0, 100), 2)
	var mu sync.Mutex
	synced := map[uint64]bool{}
	c.ForceSync(func(stripe uint64) {
		mu.Lock()
		synced[stripe] = true
		mu.Unlock()
	})
	if !synced[1] || !synced[2] {
		t.Fatalf("forced sync missed stripes: %v", synced)
	}
	if c.Entries() != 0 {
		t.Fatal("entries survived forced sync")
	}
	_, _, fs := c.Stats()
	if fs != 1 {
		t.Fatalf("forcedSyncs = %d", fs)
	}
}

// TestStripeFanOutOrder: which stripes a budget-limited cleanup round
// picks and the order ForceSync issues its sync locks are timing-visible
// under the virtual clock, so stripes must be visited in ascending id
// order, not Go's map order, on every fresh cache.
func TestStripeFanOutOrder(t *testing.T) {
	const perStripe = 400 // four stripes overrun one round's BatchLimit
	ids := []uint64{1, 2, 3, 4}
	type pick struct {
		stripe uint64
		n      int
	}
	wantPicks := []pick{{ids[0], perStripe}, {ids[1], perStripe}, {ids[2], BatchLimit - 2*perStripe}}

	for run := 0; run < 20; run++ {
		c := New(0, false)
		for _, id := range slices.Backward(ids) {
			for i := int64(0); i < perStripe; i++ {
				c.Apply(id, extent.Span(i*10, 5), extent.SN(i+1))
			}
		}
		var picks []pick
		c.CleanupRound(func(stripe uint64, _ extent.Extent) (extent.SN, bool) {
			if n := len(picks); n == 0 || picks[n-1].stripe != stripe {
				picks = append(picks, pick{stripe: stripe})
			}
			picks[len(picks)-1].n++
			return 0, true // pinned: the round removes nothing
		})
		if !slices.Equal(picks, wantPicks) {
			t.Fatalf("run %d: cleanup round picked %v, want %v", run, picks, wantPicks)
		}
		var synced []uint64
		c.ForceSync(func(stripe uint64) { synced = append(synced, stripe) })
		if !slices.Equal(synced, ids) {
			t.Fatalf("run %d: forced syncs issued in order %v, want %v", run, synced, ids)
		}
	}
}

func TestExtentLogReplay(t *testing.T) {
	c := New(0, true)
	c.Apply(1, extent.New(0, 4096), 8)
	c.Apply(1, extent.New(2048, 8192), 9)
	log := c.Log(1)
	if len(log) == 0 {
		t.Fatal("no log recorded")
	}

	// A recovered server replays the log into a fresh cache and must
	// reach the same state.
	c2 := New(0, true)
	c2.Replay(1, log)
	for _, probe := range []struct {
		rng extent.Extent
		sn  extent.SN
	}{
		{extent.New(0, 2048), 8},
		{extent.New(2048, 8192), 9},
	} {
		got, ok := c2.MaxSN(1, probe.rng)
		want, _ := c.MaxSN(1, probe.rng)
		if !ok || got != want || got != probe.sn {
			t.Fatalf("replayed SN for %v = %d, want %d", probe.rng, got, probe.sn)
		}
	}
}

func TestLogDisabled(t *testing.T) {
	c := New(0, false)
	c.Apply(1, extent.New(0, 100), 1)
	if got := c.Log(1); len(got) != 0 {
		t.Fatalf("log recorded with logging disabled: %v", got)
	}
}

func TestDaemonCleansWhenOverBudget(t *testing.T) {
	c := New(8, false)
	for i := int64(0); i < 32; i++ {
		c.Apply(1, extent.Span(i*100, 50), extent.SN(i+1))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Daemon(ctx, time.Millisecond,
			func(uint64, extent.Extent) (extent.SN, bool) { return 0, false },
			nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.NeedsCleanup() {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if c.NeedsCleanup() {
		t.Fatalf("daemon left %d entries above budget", c.Entries())
	}
}

func TestDaemonForcesSyncWhenPinned(t *testing.T) {
	c := New(4, false)
	for i := int64(0); i < 16; i++ {
		c.Apply(1, extent.Span(i*100, 50), extent.SN(i+1))
	}
	// Every entry is pinned: mSN = 0 with locks outstanding.
	forced := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Daemon(ctx, time.Millisecond,
			func(uint64, extent.Extent) (extent.SN, bool) { return 0, true },
			func(stripe uint64) {
				select {
				case forced <- struct{}{}:
				default:
				}
			})
	}()
	select {
	case <-forced:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never fell back to forced synchronization")
	}
	cancel()
	<-done
}

func TestConcurrentApply(t *testing.T) {
	c := New(0, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				c.Apply(uint64(g%4), extent.Span(i*64, 64), extent.SN(g*1000+int(i)))
			}
		}(g)
	}
	wg.Wait()
	if c.Entries() == 0 {
		t.Fatal("no entries after concurrent applies")
	}
}

func BenchmarkApplySequential(b *testing.B) {
	c := New(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := int64(i%100000) * 4096
		c.Apply(1, extent.Span(off, 4096), extent.SN(i))
	}
}

func BenchmarkApplyOverlapping(b *testing.B) {
	c := New(0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := int64(i%1000) * 2048 // heavy overlap, constant splitting
		c.Apply(1, extent.Span(off, 47008), extent.SN(i))
	}
}

func BenchmarkCleanupRoundLoaded(b *testing.B) {
	c := New(0, false)
	for i := int64(0); i < 100_000; i++ {
		c.Apply(1, extent.Span(i*100, 50), extent.SN(i+1))
	}
	noLocks := func(uint64, extent.Extent) (extent.SN, bool) { return 0, false }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.CleanupRound(noLocks) == 0 {
			b.StopTimer()
			for j := int64(0); j < 100_000; j++ {
				c.Apply(1, extent.Span(j*100, 50), extent.SN(j+1))
			}
			b.StartTimer()
		}
	}
}
