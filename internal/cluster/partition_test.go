package cluster

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/meta"
	"ccpfs/internal/partition"
	"ccpfs/internal/sim"
)

// findResourceOwnedBy returns a resource ID (> after) whose slot is
// currently mastered by the given server.
func findResourceOwnedBy(t *testing.T, c *Cluster, server int, after uint64) uint64 {
	t.Helper()
	for rid := after + 1; rid < after+100_000; rid++ {
		if owner, ok := c.lockMasterFor(rid); ok && owner == server {
			return rid
		}
	}
	t.Fatalf("no resource mastered by server %d", server)
	return 0
}

// TestClusterKillOneFailover kills one of four lock servers under held
// locks and verifies the paper's failover story end to end: the dead
// server's slot leases lapse, survivors claim them (epoch bump) and
// rebuild the lock tables from slot-filtered client replay, and the
// clients' redirected RPCs succeed at the successors — with sequencers
// resuming above every pre-kill grant and no slot mastered twice.
func TestClusterKillOneFailover(t *testing.T) {
	const nServers = 4
	c := newCluster(t, Options{
		Servers:   nServers,
		Policy:    dlm.SeqDLM(),
		Partition: true,
		LeaseTTL:  300 * time.Millisecond,
	})
	cls := newClients(t, c, 3)
	ctx := context.Background()
	victim := 1

	// Each client takes a write lock on a home resource mastered by the
	// victim, then unlocks it — the lock stays cached and granted, so
	// it must survive the kill via replay. Its SN anchors the
	// monotonicity check afterwards.
	homes := make([]dlm.ResourceID, len(cls))
	heldSN := make([]extent.SN, len(cls))
	rid := uint64(0)
	for i, cl := range cls {
		rid = findResourceOwnedBy(t, c, victim, rid)
		homes[i] = dlm.ResourceID(rid)
		h, err := cl.Locks().Acquire(ctx, homes[i], dlm.PW, extent.New(0, 4096))
		if err != nil {
			t.Fatalf("pre-kill acquire: %v", err)
		}
		heldSN[i] = h.SN()
		cl.Locks().Unlock(h)
	}
	// Some traffic on a survivor-mastered resource, so the failover runs
	// against a live cluster rather than an idle one.
	other := dlm.ResourceID(findResourceOwnedBy(t, c, 0, rid))
	if h, err := cls[0].Locks().Acquire(ctx, other, dlm.PR, extent.New(0, 4096)); err != nil {
		t.Fatalf("survivor acquire: %v", err)
	} else {
		cls[0].Locks().Unlock(h)
	}

	epoch0 := c.Coord.Epoch()
	start := time.Now()
	c.KillServer(victim)

	// Takeover: within the failover window some survivor claims each
	// home's slot and rebuilds it from client replay — the cached grants
	// must reappear at the successor. Bounded generously for -race CI;
	// the takeover itself completes within roughly TTL + one renewal
	// tick.
	deadline := time.Now().Add(20 * time.Second)
	for _, home := range homes {
		for {
			owner, ok := c.lockMasterFor(uint64(home))
			if ok && owner != victim && c.Servers[owner].DLM.GrantedCount(home) >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("home %d not re-mastered with replayed lock within 20s", home)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("takeover with replay completed in %v (lease TTL 300ms)", time.Since(start))

	if got := c.Coord.Epoch(); got <= epoch0 {
		t.Fatalf("epoch %d not bumped past %d by takeover", got, epoch0)
	}

	// Progress and SN monotonicity: a conflicting write from another
	// client revokes the replayed grant and must be granted with an SN
	// above it — a regressed sequencer would re-issue heldSN and corrupt
	// write ordering.
	for i := range cls {
		j := (i + 1) % len(cls)
		actx, cancel := context.WithTimeout(ctx, 20*time.Second)
		h2, err := cls[j].Locks().Acquire(actx, homes[i], dlm.PW, extent.New(0, 4096))
		cancel()
		if err != nil {
			t.Fatalf("post-kill acquire on home %d: %v", homes[i], err)
		}
		if h2.SN() <= heldSN[i] {
			t.Fatalf("post-failover SN %d not above pre-kill SN %d", h2.SN(), heldSN[i])
		}
		cls[j].Locks().Unlock(h2)
	}

	// No slot is mastered by two survivors, every slot found a master,
	// and the surviving engines are internally consistent.
	seen := make(map[partition.Slot]int)
	for i, s := range c.Servers {
		if i == victim {
			continue
		}
		for _, sl := range s.DLM.OwnedSlots() {
			if prev, dup := seen[sl]; dup {
				t.Fatalf("slot %d mastered by both server %d and server %d", sl, prev, i)
			}
			seen[sl] = i
		}
		if err := s.DLM.CheckInvariants(); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
	if len(seen) != partition.NumSlots {
		t.Fatalf("%d slots owned by survivors, want %d", len(seen), partition.NumSlots)
	}
}

// TestClusterSlotMigrationOnline migrates a hot slot between two live
// servers (and back) while two clients hammer it with conflicting write
// locks. Every client op must succeed — redirected RPCs retry
// transparently — and the granted SNs must stay globally unique, which
// only holds if the migration transfers each resource's sequencer
// exactly.
func TestClusterSlotMigrationOnline(t *testing.T) {
	c := newCluster(t, Options{
		Servers:   2,
		Policy:    dlm.SeqDLM(),
		Partition: true,
		LeaseTTL:  time.Second,
	})
	cls := newClients(t, c, 2)
	ctx := context.Background()

	hot := dlm.ResourceID(findResourceOwnedBy(t, c, 0, 0))
	slot := partition.SlotOf(uint64(hot))

	type rec struct {
		id dlm.LockID
		sn extent.SN
	}
	var mu sync.Mutex
	var recs []rec
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := cl.Locks().Acquire(ctx, hot, dlm.PW, extent.New(0, 4096))
				if err != nil {
					t.Errorf("client op failed during migration: %v", err)
					return
				}
				mu.Lock()
				recs = append(recs, rec{h.ID(), h.SN()})
				mu.Unlock()
				cl.Locks().Unlock(h)
			}
		}(cl)
	}

	// distinctGrants counts distinct (SN, lock) grants recorded so far;
	// the same ID re-reporting an SN is just a client cache hit.
	distinctGrants := func() int {
		mu.Lock()
		defer mu.Unlock()
		byID := make(map[extent.SN]dlm.LockID)
		n := 0
		for _, r := range recs {
			if _, ok := byID[r.sn]; !ok {
				byID[r.sn] = r.id
				n++
			}
		}
		return n
	}
	migrate := func(from, to int) {
		mctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := c.MigrateSlot(mctx, slot, from, to); err != nil {
			t.Fatalf("migrate slot %d %d->%d: %v", slot, from, to, err)
		}
	}
	// Phase on observed progress, not wall-clock sleeps: each migration
	// happens with grant traffic demonstrably in flight, and the run
	// only stops after enough distinct grants to make the uniqueness
	// check meaningful — robust on slow or loaded hosts.
	waitGrants := func(min int) {
		deadline := time.Now().Add(15 * time.Second)
		for distinctGrants() < min && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitGrants(3)
	migrate(0, 1)
	waitGrants(6)
	migrate(1, 0)
	waitGrants(10)
	close(stop)
	wg.Wait()

	// Global SN uniqueness across the whole run: a duplicate SN under
	// two different lock IDs means a migration regressed a sequencer.
	byID := make(map[extent.SN]dlm.LockID)
	for _, r := range recs {
		if prev, ok := byID[r.sn]; ok && prev != r.id {
			t.Fatalf("SN %d issued to two locks (%d and %d)", r.sn, prev, r.id)
		}
		byID[r.sn] = r.id
	}
	if grants := distinctGrants(); grants < 10 {
		t.Fatalf("only %d distinct grants recorded; workers were starved", grants)
	}

	// Both directions actually migrated, the slot is home again, and
	// both engines are consistent.
	for i, s := range c.Servers {
		if s.DLM.Stats.SlotMigrationsOut.Load() < 1 || s.DLM.Stats.SlotMigrationsIn.Load() < 1 {
			t.Fatalf("server %d migrations in/out = %d/%d, want >= 1 each",
				i, s.DLM.Stats.SlotMigrationsIn.Load(), s.DLM.Stats.SlotMigrationsOut.Load())
		}
		if err := s.DLM.CheckInvariants(); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
	if err := c.Servers[0].DLM.CheckMaster(hot); err != nil {
		t.Fatalf("slot %d not back home on server 0: %v", slot, err)
	}
	if err := c.Servers[1].DLM.CheckMaster(hot); err == nil {
		t.Fatalf("server 1 still masters slot %d after migrating it away", slot)
	}

	// The clients' retry counters show the redirects really happened
	// (at least one client chased the map during the two migrations).
	var retries int64
	for _, cl := range cls {
		retries += cl.Stats.LockRetries.Load()
	}
	if retries == 0 {
		t.Log("no redirected RPCs observed (migrations fell between ops); SN check still valid")
	}
}

// TestPartitionedForcedSync drives the extent cache's forced
// synchronization (§IV-B) for a stripe that one server stores and the
// other masters: the storing server's cleanup must ask the remote master
// for the stripe's mSN, find its entries pinned there, and take the
// whole-range read lock at the master to force every client's flush.
//
// Client A holds a write lock on the stripe without releasing it. B's
// conflicting write is early-granted behind A's CANCELING lock and
// flushed as two extents, over the budget of one. A's older unreleased
// lock pins both, so cleanup cannot remove them and the daemon forces a
// sync, which completes once A lets go.
func TestPartitionedForcedSync(t *testing.T) {
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	v.Run(func() {
		c := newCluster(t, Options{
			Servers:           2,
			Policy:            dlm.SeqDLM(),
			Partition:         true,
			ExtCacheThreshold: 1,
			CleanupInterval:   time.Millisecond,
			Hardware:          hw,
		})
		cls := newClients(t, c, 2)
		a, b := cls[0], cls[1]
		ctx := context.Background()
		const stripeSize, stripes = 64 << 10, 8
		fa, err := a.Create("/forced", stripeSize, stripes)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := b.Open("/forced")
		if err != nil {
			t.Fatal(err)
		}
		stripe, store := -1, 0
		for s := range stripes {
			rid := uint64(fa.Resource(uint32(s)))
			master, ok := c.lockMasterFor(rid)
			if st := meta.PlaceStripe(rid, len(c.Servers)); ok && master != st {
				stripe, store = s, st
				break
			}
		}
		if stripe < 0 {
			t.Fatal("no stripe stored on one server and mastered on the other")
		}
		res := fa.Resource(uint32(stripe))
		base := int64(stripe) * stripeSize

		held, err := a.Locks().Acquire(ctx, res, dlm.NBW, extent.New(0, 4096))
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64][]byte{base: pattern(1, 100), base + 1000: pattern(2, 100)}
		for off, p := range want {
			if _, err := fb.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
		}
		if err := fb.Fsync(); err != nil {
			t.Fatal(err)
		}

		srv := c.Servers[store]
		for i := 0; srv.Obs().Snapshot().Gauges["extcache.forced_syncs"] == 0; i++ {
			if i == 1000 {
				t.Fatalf("no forced sync after %d virtual ms (entries %d, pinned %d)", i, srv.Cache.Entries(), srv.Cache.Pinned())
			}
			c.Clock().Sleep(time.Millisecond)
		}
		// The sync waits at the master for A's lock; releasing it lets
		// the sync finish and empty the cache.
		a.Locks().Unlock(held)
		for i := 0; srv.Cache.Entries() > 0; i++ {
			if i == 1000 {
				t.Fatalf("extent cache still holds %d entries after the forced sync", srv.Cache.Entries())
			}
			c.Clock().Sleep(time.Millisecond)
		}
		for off, p := range want {
			got := make([]byte, len(p))
			if _, err := fa.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("read-back at %d differs after the forced sync", off)
			}
		}
	})
}
