package extcache

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ccpfs/internal/extent"
)

// TestConcurrentStress hammers the cache with concurrent Apply, MaxSN,
// and cleanup rounds on overlapping stripes (run under -race in CI).
// The asserted invariant is per-byte-range max-SN monotonicity: once a
// reader observes SN x for a range, no later read of that range may
// observe a smaller SN while the entries are pinned — cleanup with a
// pinning mSN may only remove entries at or below the release horizon,
// so a regression above the horizon is a lost update.
func TestConcurrentStress(t *testing.T) {
	const (
		stripes  = 4
		writers  = 4
		readers  = 2
		perSlot  = 16 // byte ranges per stripe
		slotSize = 4096
		rounds   = 2000
	)
	c := New(1, false) // budget 1: cleanup always has work to consider

	var sn atomic.Uint64 // global SN allocator

	// seen holds the highest SN observed per byte range. Each slot's
	// read-compare-update must be one atomic step (slotMu): otherwise a
	// reader that finished MaxSN and then slept while a faster reader
	// raised the cell would flag a "regression" even though both reads
	// were correct when they executed inside the cache.
	var seen [stripes][perSlot]uint64
	var slotMu [stripes][perSlot]sync.Mutex

	// minSN treats everything older than the horizon as released
	// (removable) and everything newer as pinned by unreleased locks.
	var horizon atomic.Uint64
	pinningMinSN := func(uint64, extent.Extent) (extent.SN, bool) {
		return horizon.Load(), true
	}

	stop := make(chan struct{})
	var loopers sync.WaitGroup

	// Cleanup task: advance the horizon lazily and run rounds.
	loopers.Add(1)
	go func() {
		defer loopers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Everything older than half the issued SNs is "released".
			horizon.Store(sn.Load() / 2)
			c.CleanupRound(pinningMinSN)
		}
	}()

	readErr := make(chan string, 1)
	for r := 0; r < readers; r++ {
		loopers.Add(1)
		go func(seed int64) {
			defer loopers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				stripe := uint64(rng.Intn(stripes))
				slot := rng.Intn(perSlot)
				off := int64(slot) * slotSize
				mu := &slotMu[stripe][slot]
				mu.Lock()
				got, ok := c.MaxSN(stripe, extent.New(off, off+slotSize))
				if !ok {
					mu.Unlock()
					continue
				}
				prev := seen[stripe][slot]
				if got >= prev {
					seen[stripe][slot] = got
				} else if prev > horizon.Load() {
					// got < prev: legal only when the previously observed
					// entry became removable (prev <= horizon) — then the
					// range may read older or empty. A smaller SN while
					// prev is still pinned means an update was lost.
					select {
					case readErr <- "max-SN regression above cleanup horizon":
					default:
					}
				}
				mu.Unlock()
			}
		}(int64(100 + r))
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				stripe := uint64(rng.Intn(stripes))
				slot := rng.Intn(perSlot)
				s := sn.Add(1)
				off := int64(slot) * slotSize
				c.Apply(stripe, extent.New(off, off+slotSize), s)
			}
		}(int64(w))
	}
	writersWG.Wait()
	close(stop)
	loopers.Wait()

	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}

	// Quiescent check: with all locks released (no pinning), a full
	// cleanup sweep must drain the cache completely, and the atomic
	// entry accounting must end exactly at zero.
	unpinned := func(uint64, extent.Extent) (extent.SN, bool) { return 0, false }
	for c.Entries() > 0 {
		if c.CleanupRound(unpinned) == 0 {
			t.Fatalf("cleanup stalled with %d entries left", c.Entries())
		}
	}
	if got := c.Entries(); got != 0 {
		t.Fatalf("entry counter %d after full drain, want 0", got)
	}
	if ins, _, _ := c.Stats(); ins != int64(writers*rounds) {
		t.Fatalf("inserts = %d, want %d", ins, writers*rounds)
	}
}

// TestConcurrentApplySameStripe checks that racing flushes to the SAME
// stripe keep the tree consistent and the winner is always the highest
// SN per byte (the §IV-B ordering rule).
func TestConcurrentApplySameStripe(t *testing.T) {
	const (
		writers = 8
		rounds  = 500
	)
	c := New(0, false)
	var wg sync.WaitGroup
	var sn atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Apply(7, extent.New(0, 4096), sn.Add(1))
			}
		}()
	}
	wg.Wait()
	got, ok := c.MaxSN(7, extent.New(0, 4096))
	if !ok || got != uint64(writers*rounds) {
		t.Fatalf("MaxSN = %d,%v; want %d", got, ok, writers*rounds)
	}
	if c.Entries() != 1 {
		t.Fatalf("entries = %d, want 1 (full overwrite)", c.Entries())
	}
}

// TestMaxSNRacesApply races MaxSN probes against Apply on one stripe
// (run under -race in CI). A beacon range is only ever rewritten with
// increasing SNs, so what a reader sees there must be an SN that was
// applied to the beacon and must never go backwards; churn beside the
// beacon keeps the tree rotating and recycling nodes under the readers.
func TestMaxSNRacesApply(t *testing.T) {
	const (
		stripe = 7
		beacon = int64(1 << 20) // far from the churn region
		every  = 5              // the beacon is rewritten every fifth round
	)
	bcn := extent.New(beacon, beacon+64)
	c := New(0, false)
	var issued atomic.Uint64 // highest SN handed to Apply so far
	issued.Store(1)
	c.Apply(stripe, bcn, 1)
	// round i carries SN i+2, so the beacon only ever holds 1 or 2+every*k.
	onBeacon := func(sn extent.SN) bool { return sn == 1 || (sn-2)%every == 0 }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last extent.SN
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn, ok := c.MaxSN(stripe, bcn)
				switch {
				case !ok:
					t.Error("beacon vanished")
				case sn < last:
					t.Errorf("beacon SN went backwards: %d after %d", sn, last)
				case sn > issued.Load() || !onBeacon(sn):
					t.Errorf("beacon SN %d was never applied there (issued up to %d)", sn, issued.Load())
				default:
					last = sn
					continue
				}
				return
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6000; i++ {
		sn := extent.SN(i + 2)
		issued.Store(sn) // before Apply, so readers never see an SN ahead of it
		start := rng.Int63n(8192)
		c.Apply(stripe, extent.New(start, start+1+rng.Int63n(512)), sn)
		if i%every == 0 {
			c.Apply(stripe, bcn, sn)
		}
	}
	close(stop)
	wg.Wait()
	if got, _ := c.MaxSN(stripe, bcn); got != 5997 {
		t.Fatalf("final beacon SN = %d, want 5997", got)
	}
}
