// Package extcache implements the data server's extent cache of §IV-B:
// a per-stripe interval structure recording the newest sequence number
// written to each byte range, which makes out-of-order data flushing
// from early-granted locks land correctly on the storage device.
//
// It also implements the two cache-size controls of the paper: an
// asynchronous cleanup task that removes entries whose SN is no larger
// than the minimum SN of unreleased write locks overlapping them (mSN),
// processing at most BatchLimit entries per round at lower priority than
// IO; and a forced-synchronization fallback that reclaims every
// outstanding write lock when cleanup cannot keep the cache under its
// entry budget.
//
// Concurrency: the cache is sharded by stripe (shard.Of) and every
// stripe carries its own mutex, so flushes to different stripes never
// contend and the cleanup task only ever stalls the one stripe it is
// scanning. Shard mutexes guard only the stripe map; stripe mutexes
// guard everything of that stripe, reads included (tree, log, scan
// cursor); the global entry count and activity counters are atomics.
// See DESIGN.md §6 (Concurrency model).
package extcache

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/shard"
	"ccpfs/internal/sim"
)

// Defaults from the paper.
const (
	// DefaultThreshold is the entry count that triggers cleanup (256 K).
	DefaultThreshold = 256 * 1024
	// BatchLimit is the maximum entries one cleanup round processes so
	// the task never blocks normal IO for long (1,024).
	BatchLimit = 1024
)

// MinSNFunc queries the DLM service for the minimum SN among unreleased
// write locks overlapping rng on a stripe; the boolean is false when no
// such lock exists (every cached entry in rng is then removable).
type MinSNFunc func(stripe uint64, rng extent.Extent) (extent.SN, bool)

// ForceSyncFunc forces the data flushing of all clients for a stripe by
// acquiring a whole-range read lock (and releasing it).
type ForceSyncFunc func(stripe uint64)

// Cache is the extent cache for all stripes a data server owns.
type Cache struct {
	shards    [shard.Count]cacheShard
	threshold int
	logging   bool
	logFile   *LogFile // optional durable mirror; attached before traffic

	// entries mirrors the total tree entry count across stripes so the
	// budget check is one atomic load instead of a full-cache scan under
	// a lock.
	entries atomic.Int64

	// Stats.
	inserts     atomic.Int64
	cleaned     atomic.Int64
	forcedSyncs atomic.Int64
	// pinned is the number of entries the most recent cleanup round
	// visited but could not remove because an unreleased write lock's
	// mSN was below the entry's SN — the cache's cleanup lag behind the
	// lock state. It is overwritten per round, so it reads as a gauge.
	pinned atomic.Int64

	// kick wakes the cleanup daemon ahead of its next tick; see Kick.
	kick chan struct{}

	// clk is the daemon's time source (zero value: wall clock).
	clk sim.Clock
}

// SetClock points the cleanup daemon at a (virtual) clock. Call before
// Daemon starts.
func (c *Cache) SetClock(clk sim.Clock) { c.clk = clk }

// cacheShard holds the stripe map of one shard. The RWMutex guards only
// map lookup/insert; per-stripe state has its own lock.
type cacheShard struct {
	mu      sync.RWMutex
	stripes map[uint64]*stripeCache
}

type stripeCache struct {
	mu     sync.Mutex
	tree   extent.Tree
	cursor int64 // cleanup scan position
	log    []extent.SNExtent
}

// stripeRef names a stripe's cache outside the shard map.
type stripeRef struct {
	id uint64
	sc *stripeCache
}

// New returns a cache with the given entry threshold (DefaultThreshold
// when <= 0). When logging is true an extent log is kept per stripe so
// the cache can be rebuilt after a server restart (§IV-C2).
func New(threshold int, logging bool) *Cache {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	c := &Cache{
		threshold: threshold,
		logging:   logging,
		kick:      make(chan struct{}, 1),
	}
	for i := range c.shards {
		c.shards[i].stripes = make(map[uint64]*stripeCache)
	}
	return c
}

// stripe returns stripe id's cache, creating it if needed. Stripes are
// never removed from the map (ForceSync clears their contents in
// place), so the returned pointer stays valid without the shard lock.
func (c *Cache) stripe(id uint64) *stripeCache {
	sh := &c.shards[shard.Of(id)]
	sh.mu.RLock()
	sc := sh.stripes[id]
	sh.mu.RUnlock()
	if sc != nil {
		return sc
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sc = sh.stripes[id]; sc == nil {
		sc = &stripeCache{}
		sh.stripes[id] = sc
	}
	return sc
}

// lookup returns stripe id's cache without creating it.
func (c *Cache) lookup(id uint64) *stripeCache {
	sh := &c.shards[shard.Of(id)]
	sh.mu.RLock()
	sc := sh.stripes[id]
	sh.mu.RUnlock()
	return sc
}

// Apply merges an incoming flushed block (rng, sn) into the cache and
// returns the update set: the sub-ranges where the incoming data is
// newest and must be written to the device. Ranges absent from the
// update set lost to newer cached data and their bytes are discarded.
func (c *Cache) Apply(stripe uint64, rng extent.Extent, sn extent.SN) []extent.SNExtent {
	sc := c.stripe(stripe)
	sc.mu.Lock()
	before := sc.tree.Len()
	won := sc.tree.Insert(rng, sn)
	if c.logging && len(won) > 0 {
		sc.log = append(sc.log, won...)
	}
	if c.logFile != nil && len(won) > 0 {
		// Mirror to the durable log while holding the stripe lock so
		// record order matches apply order per stripe (replay only needs
		// per-stripe ordering: records carry the stripe id).
		c.logFile.Append(stripe, won)
	}
	delta := sc.tree.Len() - before
	sc.mu.Unlock()
	c.entries.Add(int64(delta))
	c.inserts.Add(1)
	return won
}

// MaxSN returns the newest SN recorded for any byte of rng.
func (c *Cache) MaxSN(stripe uint64, rng extent.Extent) (extent.SN, bool) {
	sc := c.lookup(stripe)
	if sc == nil {
		return 0, false
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.tree.MaxSNOverlapping(rng)
}

// Entries returns the total entry count across stripes.
func (c *Cache) Entries() int { return int(c.entries.Load()) }

// Bytes returns the modelled memory footprint (48 bytes per entry).
func (c *Cache) Bytes() int {
	return c.Entries() * extent.EntrySize
}

// NeedsCleanup reports whether the entry budget is exceeded.
func (c *Cache) NeedsCleanup() bool { return c.Entries() > c.threshold }

// forEachStripe visits every stripe currently in the cache, shard by
// shard and in ascending id order within a shard: which stripes a
// budgeted cleanup round reaches and the order forced syncs are issued
// are timing-visible, so they must not follow Go's map order. It
// snapshots each shard's stripe list under the shard read lock and
// visits without any lock held, so fn may lock the stripe itself.
func (c *Cache) forEachStripe(fn func(id uint64, sc *stripeCache) bool) {
	var ents []stripeRef
	for i := range c.shards {
		sh := &c.shards[i]
		ents = ents[:0]
		sh.mu.RLock()
		for id, sc := range sh.stripes {
			ents = append(ents, stripeRef{id, sc})
		}
		sh.mu.RUnlock()
		slices.SortFunc(ents, func(a, b stripeRef) int { return cmp.Compare(a.id, b.id) })
		for _, e := range ents {
			if !fn(e.id, e.sc) {
				return
			}
		}
	}
}

// CleanupRound runs one bounded cleanup pass: it picks up to BatchLimit
// entries round-robin across stripes (resuming each stripe's scan where
// the previous round stopped), queries the mSN for each entry's range,
// and removes entries whose SN is no larger than the mSN — those can
// never be superseded by in-flight flushes because SeqDLM guarantees
// data with smaller SNs is already on the device. It returns the number
// of entries removed. Only the stripe being scanned is locked at any
// moment, so inserts on other stripes proceed unimpeded.
func (c *Cache) CleanupRound(minSN MinSNFunc) int {
	type job struct {
		stripe uint64
		sc     *stripeCache
		ents   []extent.SNExtent
	}
	var jobs []job
	budget := BatchLimit
	c.forEachStripe(func(id uint64, sc *stripeCache) bool {
		if budget <= 0 {
			return false
		}
		sc.mu.Lock()
		batch, next := sc.tree.PickBatch(sc.cursor, budget)
		if len(batch) == 0 && sc.cursor != 0 {
			// The scan ran off the end; wrap and retry immediately so a
			// round always makes progress on a non-empty stripe.
			sc.cursor = 0
			batch, next = sc.tree.PickBatch(0, budget)
		}
		if len(batch) == 0 {
			sc.mu.Unlock()
			return true
		}
		sc.cursor = next
		sc.mu.Unlock()
		budget -= len(batch)
		jobs = append(jobs, job{stripe: id, sc: sc, ents: batch})
		return true
	})

	removed := 0
	skipped := int64(0)
	for _, j := range jobs {
		// Query the mSN per entry outside the stripe lock (the DLM call
		// can block behind lock traffic). An entry is removable when its
		// SN is no larger than the mSN — SeqDLM guarantees data with
		// smaller SNs has already been written to the device, so nothing
		// in flight can still need this entry for ordering. With no
		// unreleased write lock overlapping the range, every entry is
		// removable.
		for _, ent := range j.ents {
			msn, hasLocks := minSN(j.stripe, ent.Extent)
			limit := ent.SN // no locks: the entry itself is the bound
			if hasLocks {
				limit = msn
			}
			if ent.SN > limit {
				skipped++
				continue
			}
			j.sc.mu.Lock()
			removed += j.sc.tree.RemoveLE([]extent.SNExtent{ent}, limit)
			j.sc.mu.Unlock()
		}
	}
	c.entries.Add(-int64(removed))
	c.cleaned.Add(int64(removed))
	c.pinned.Store(skipped)
	return removed
}

// Pinned returns how many entries the most recent cleanup round could
// not remove because they were pinned by unreleased write locks.
func (c *Cache) Pinned() int64 { return c.pinned.Load() }

// ForceSync runs the fallback of §IV-B when cleanup cannot keep the
// cache under budget: for every stripe still over its share, it forces
// all clients to flush by taking a whole-range read lock, after which
// every entry (and the extent log) can be dropped.
func (c *Cache) ForceSync(sync ForceSyncFunc) {
	var targets []stripeRef
	c.forEachStripe(func(id uint64, sc *stripeCache) bool {
		sc.mu.Lock()
		n := sc.tree.Len()
		sc.mu.Unlock()
		if n > 0 {
			targets = append(targets, stripeRef{id, sc})
		}
		return true
	})
	c.forcedSyncs.Add(1)

	for _, t := range targets {
		sync(t.id) // all conflicting writes are durable once this returns
		t.sc.mu.Lock()
		dropped := t.sc.tree.Len()
		t.sc.tree.Clear()
		t.sc.log = nil
		t.sc.cursor = 0
		t.sc.mu.Unlock()
		c.entries.Add(-int64(dropped))
	}
	if c.logFile != nil {
		// Every logged entry is now redundant: the forced sync flushed
		// all clients and the cache restarts empty.
		c.logFile.Truncate()
	}
}

// Log returns a copy of a stripe's extent log (empty when logging is
// disabled).
func (c *Cache) Log(stripe uint64) []extent.SNExtent {
	sc := c.lookup(stripe)
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]extent.SNExtent, len(sc.log))
	copy(out, sc.log)
	return out
}

// Replay rebuilds a stripe's cache from an extent log, the server
// recovery path of §IV-C2.
func (c *Cache) Replay(stripe uint64, log []extent.SNExtent) {
	sc := c.stripe(stripe)
	sc.mu.Lock()
	before := sc.tree.Len()
	sc.tree.Clear()
	sc.log = nil
	for _, e := range log {
		sc.tree.Insert(e.Extent, e.SN)
		if c.logging {
			sc.log = append(sc.log, e)
		}
	}
	delta := sc.tree.Len() - before
	sc.mu.Unlock()
	c.entries.Add(int64(delta))
}

// Stats reports cache activity counters.
func (c *Cache) Stats() (inserts, cleaned, forcedSyncs int64) {
	return c.inserts.Load(), c.cleaned.Load(), c.forcedSyncs.Load()
}

// Kick wakes the cleanup daemon ahead of its next tick. The flush path
// calls it right after the budget check trips: because NeedsCleanup is
// a single atomic load, the write routine can afford to test it on
// every flush and start cleanup the moment the cache goes over budget
// instead of waiting out the tick. Kick never blocks; with no daemon
// running it is a no-op.
func (c *Cache) Kick() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
	c.clk.Wakeup(c.kick)
}

// Daemon runs the periodic cleanup task until ctx is canceled: each
// tick (or Kick) it runs cleanup rounds while the cache is over budget,
// and falls back to forced synchronization when a full sweep cannot get
// it under.
func (c *Cache) Daemon(ctx context.Context, interval time.Duration, minSN MinSNFunc, force ForceSyncFunc) {
	for {
		// A kick that landed during the last pass is spent: that pass
		// ran while the cache was over budget.
		select {
		case <-c.kick:
		default:
		}
		sim.Recv(ctx, c.clk, c.kick, nil, c.clk.Now().Add(interval))
		if ctx.Err() != nil {
			return
		}
		c.daemonPass(minSN, force)
	}
}

// daemonPass is one tick of the cleanup daemon: cleanup rounds while
// the cache is over budget, then the forced-synchronization fallback.
func (c *Cache) daemonPass(minSN MinSNFunc, force ForceSyncFunc) {
	if !c.NeedsCleanup() {
		return
	}
	// A full sweep is at most Entries/BatchLimit rounds; if the
	// cache is still over budget afterwards, the remaining entries
	// are pinned by unreleased early-granted locks — force flushing.
	rounds := c.Entries()/BatchLimit + 1
	for i := 0; i < rounds && c.NeedsCleanup(); i++ {
		c.CleanupRound(minSN)
	}
	if c.NeedsCleanup() && force != nil {
		c.ForceSync(force)
	}
}
