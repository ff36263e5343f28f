// Package pagecache implements the ccPFS client cache of §IV-A: data is
// divided into pages (4 KB by default), and each page keeps an extent
// list recording which byte ranges hold valid data and under which lock
// sequence number they were written. Written data with a larger SN
// overwrites smaller ones on insert, which is what keeps the cache
// coherent when early grant lets conflicting writes from the same client
// overlap in flight.
//
// Pages come from a process-wide pool, one per page size, shared by
// every cache: a page for an absent index is drawn with its header and
// its PageSize bytes together, and a page goes back when it leaves its
// stripe's map — when invalidate or reclaim drops it, the only two
// places that know nobody else holds it (page bytes are touched only
// under the stripe mutex, and Read, AppendDirty and write all copy). So
// the host memory behind a cache is its pages × PageSize, which
// Config.PoolBytes (the prototype's pre-registered RDMA page pool)
// bounds. In -race builds a page is poisoned as it goes back, as wire's
// buffers are.
//
// Concurrency: stripes are sharded (shard.Of) and each stripe carries
// its own mutex guarding its page map and page contents, so IO on
// different stripes never contends. The global dirty/cached/page
// accounting is atomic; the MaxDirty backpressure of §IV-C1 runs
// through a separate flow-control gate (flowMu + a sim.Cond) that admits
// writers by reservation, preserving the strict dirty-bytes bound
// without serializing the data path. See DESIGN.md §6.
package pagecache

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/shard"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// DefaultPageSize matches the paper's 4 KB management unit.
const DefaultPageSize = 4096

// Block is an SN-tagged data block collected for flushing or filled by a
// read. The Data of a collected block is a pooled buffer (wire.GetBuf):
// a consumer that knows when it is done with the bytes may return it
// with wire.PutBuf — the client's flush path does, once the block is
// encoded — and anyone else leaves it to the collector.
type Block struct {
	Range extent.Extent
	SN    extent.SN
	Data  []byte
}

// Config sizes a cache.
type Config struct {
	// PageSize is the page granularity (DefaultPageSize when 0).
	PageSize int64
	// PoolBytes bounds total cached bytes (dirty + clean). Clean pages
	// are reclaimed to the pool when the bound is exceeded; writers
	// block when dirty data alone exceeds it. Zero means unbounded.
	// Pages are the cache's only holders of data bytes, so it bounds
	// the host memory behind them too.
	PoolBytes int64
	// MinDirty is the dirty-bytes threshold at which the voluntary flush
	// daemon should start flushing (256 MB in the paper).
	MinDirty int64
	// MaxDirty is the dirty-bytes threshold at which writers block until
	// flushing frees space (4 GB in the paper). Zero means unbounded.
	MaxDirty int64
	// CacheBandwidth, when set, charges simulated memory-copy time
	// (bytes/second) for every write into the cache — the cache-speed
	// bound the paper's N-N results converge to. Zero disables it.
	CacheBandwidth float64
}

type page struct {
	buf   []byte
	valid extent.List // page-relative ranges holding cached data
	dirty extent.List // subset not yet flushed

	// cachedBytes/dirtyBytes mirror the lists' total lengths so global
	// accounting updates are O(touched pages), not O(all pages).
	cachedBytes int64
	dirtyBytes  int64

	// ents is where both lists keep their first entries (SetStorage): a
	// page written whole holds one entry in each, so the lists cost no
	// allocation of their own.
	ents [2][2]extent.SNExtent
}

// pagePools holds one *sync.Pool of pages per page size, shared by
// every cache in the process.
var pagePools sync.Map

// poolFor returns the page pool for page size ps.
func poolFor(ps int64) *sync.Pool {
	if p, ok := pagePools.Load(ps); ok {
		return p.(*sync.Pool)
	}
	p, _ := pagePools.LoadOrStore(ps, &sync.Pool{New: func() any {
		pg := &page{buf: make([]byte, ps)}
		pg.valid.SetStorage(pg.ents[0][:])
		pg.dirty.SetStorage(pg.ents[1][:])
		return pg
	}})
	return p.(*sync.Pool)
}

// dropPage returns a page that has just left its stripe's map to the
// pool. Its lists must be empty (a dirty byte is always a valid one),
// so the next taker starts from a page that holds nothing. The caller
// holds the stripe mutex.
func (c *Cache) dropPage(pg *page) {
	if wire.RaceEnabled {
		for i := range pg.buf {
			pg.buf[i] = 0xDB
		}
	}
	c.pool.Put(pg)
}

// local returns the part of rng that falls on page pi, page-relative.
func local(rng extent.Extent, pi, ps int64) (extent.Extent, bool) {
	iv, ok := extent.Extent{Start: pi * ps, End: (pi + 1) * ps}.Intersect(rng)
	return extent.Extent{Start: iv.Start - pi*ps, End: iv.End - pi*ps}, ok
}

// stripePages is one stripe's pages plus the mutex guarding them.
type stripePages struct {
	mu    sync.Mutex
	pages map[int64]*page // keyed by page index

	// visit is pagesIn's result buffer, reused under mu.
	visit []pageAt
}

// pageAt is a page with its index.
type pageAt struct {
	pi int64
	pg *page
}

// pagesIn returns the pages of sp that intersect rng — in ascending
// index order if sorted is set — by probing the range's page indices
// when those are fewer than the stripe's pages and by filtering the map
// otherwise, so a flush or invalidation of one lock's range costs its
// own pages, not the stripe's. The result is valid until the next call;
// the caller holds sp.mu and clears it when done (releasePages) so the
// buffer does not keep evicted pages alive.
func (sp *stripePages) pagesIn(rng extent.Extent, ps int64, sorted bool) []pageAt {
	out := sp.visit[:0]
	if rng.Empty() {
		return out
	}
	lo, hi := rng.Start/ps, (rng.End-1)/ps
	if hi-lo < int64(len(sp.pages)) {
		for pi := lo; pi <= hi; pi++ {
			if pg := sp.pages[pi]; pg != nil {
				out = append(out, pageAt{pi, pg})
			}
		}
	} else {
		for pi, pg := range sp.pages {
			if lo <= pi && pi <= hi {
				out = append(out, pageAt{pi, pg})
			}
		}
		if sorted {
			slices.SortFunc(out, func(a, b pageAt) int { return cmp.Compare(a.pi, b.pi) })
		}
	}
	sp.visit = out
	return out
}

func (sp *stripePages) releasePages() { clear(sp.visit) }

// pcShard holds the stripe map of one shard, made on its first insert;
// the shard mutex guards only map lookup/insert.
type pcShard struct {
	mu      sync.RWMutex
	stripes map[uint64]*stripePages
}

// Cache is one client's page cache across all stripes it touches.
// Ranges are stripe-local byte offsets keyed by lock resource.
type Cache struct {
	cfg  Config
	clk  sim.Clock
	mem  sim.Device // serializes simulated cache-copy time
	pool *sync.Pool // poolFor(cfg.PageSize)

	shards [shard.Count]pcShard

	dirty      atomic.Int64
	cached     atomic.Int64
	pages      atomic.Int64 // allocated page count, drives pool reclaim
	superseded atomic.Int64 // see SupersededBytes

	// Flow control for the MaxDirty bound: writers reserve their byte
	// count under flowMu before touching any stripe, and flushes signal
	// the cond when dirty bytes drop. pending counts admitted-but-not-
	// yet-accounted reservations so concurrent writers cannot overshoot.
	flowMu  sync.Mutex
	flow    *sim.Cond
	pending int64
}

// New returns a cache with cfg.
func New(cfg Config) *Cache {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	c := &Cache{cfg: cfg, pool: poolFor(cfg.PageSize)}
	c.flow = sim.NewCond(c.clk, &c.flowMu)
	return c
}

// SetClock moves the cache onto clk: simulated copy time is charged on
// it and the MaxDirty admission gate waits on it. Call before first use.
func (c *Cache) SetClock(clk sim.Clock) {
	c.clk = clk
	c.mem.SetClock(clk)
	c.flow = sim.NewCond(clk, &c.flowMu)
}

// PageSize returns the configured page size.
func (c *Cache) PageSize() int64 { return c.cfg.PageSize }

// DirtyBytes returns the current dirty byte count.
func (c *Cache) DirtyBytes() int64 { return c.dirty.Load() }

// CachedBytes returns the total valid bytes cached (dirty + clean).
func (c *Cache) CachedBytes() int64 { return c.cached.Load() }

// SupersededBytes returns the bytes written into the cache that no flush
// will carry: dirty bytes a later write replaced before a flush
// collected them, and bytes of a write that lost to newer cached data.
// A holder that hands a write lock on and defers its flush can win the
// lock back and overwrite its own unflushed bytes before that flush
// collects them.
func (c *Cache) SupersededBytes() int64 { return c.superseded.Load() }

// NeedsFlush reports whether dirty data has crossed the voluntary-flush
// threshold.
func (c *Cache) NeedsFlush() bool {
	if c.cfg.MinDirty <= 0 {
		return false
	}
	return c.DirtyBytes() >= c.cfg.MinDirty
}

// stripe returns stripe id's page set, creating it if needed. Stripes
// are never removed from the shard map (invalidate empties them in
// place), so the pointer stays valid without the shard lock.
func (c *Cache) stripe(id uint64) *stripePages {
	sh := &c.shards[shard.Of(id)]
	sh.mu.RLock()
	sp := sh.stripes[id]
	sh.mu.RUnlock()
	if sp != nil {
		return sp
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sp = sh.stripes[id]; sp == nil {
		if sh.stripes == nil {
			sh.stripes = make(map[uint64]*stripePages)
		}
		sp = &stripePages{pages: make(map[int64]*page)}
		sh.stripes[id] = sp
	}
	return sp
}

// lookup returns stripe id's page set without creating it.
func (c *Cache) lookup(id uint64) *stripePages {
	sh := &c.shards[shard.Of(id)]
	sh.mu.RLock()
	sp := sh.stripes[id]
	sh.mu.RUnlock()
	return sp
}

// signalFlow wakes writers blocked on the MaxDirty gate after dirty
// bytes (or a reservation) decreased.
func (c *Cache) signalFlow() {
	if c.cfg.MaxDirty <= 0 {
		return
	}
	c.flowMu.Lock()
	c.flow.Broadcast()
	c.flowMu.Unlock()
}

// Write copies data into the cache at off within stripe, tagged with sn.
// It blocks while dirty bytes exceed MaxDirty (the forced-flush
// backpressure of §IV-C1); the flush daemon is responsible for draining.
func (c *Cache) Write(stripe uint64, off int64, data []byte, sn extent.SN) {
	if len(data) == 0 {
		return
	}
	c.mem.UseBytes(int64(len(data)), c.cfg.CacheBandwidth, 0)
	need := int64(len(data))
	if c.cfg.MaxDirty > 0 {
		// Admission by reservation: dirty + admitted reservations must
		// stay under the bound, so racing writers on different stripes
		// cannot collectively overshoot it.
		c.flowMu.Lock()
		for c.dirty.Load()+c.pending+need > c.cfg.MaxDirty {
			c.flow.Wait(context.Background(), time.Time{})
		}
		c.pending += need
		c.flowMu.Unlock()
	}
	sp := c.stripe(stripe)
	sp.mu.Lock()
	c.write(sp, off, data, sn, true)
	sp.mu.Unlock()
	if c.cfg.MaxDirty > 0 {
		c.flowMu.Lock()
		c.pending -= need
		// The actual dirty delta may be smaller than the reservation
		// (overwrites), so releasing it can free admission space.
		c.flow.Broadcast()
		c.flowMu.Unlock()
	}
}

// Fill inserts clean data read from a data server, tagged with the SN
// the server reported for it. Filled bytes lose ties: cached data with
// an equal or newer SN (in particular, unflushed dirty data) is at least
// as new as the server's copy and must never be replaced by it.
func (c *Cache) Fill(stripe uint64, off int64, data []byte, sn extent.SN) {
	if len(data) == 0 {
		return
	}
	sp := c.stripe(stripe)
	sp.mu.Lock()
	c.write(sp, off, data, sn, false)
	sp.mu.Unlock()
	c.reclaim()
}

// write lands data into sp's pages; the caller holds sp.mu.
func (c *Cache) write(sp *stripePages, off int64, data []byte, sn extent.SN, markDirty bool) {
	ps := c.cfg.PageSize
	var wonBuf, dirtyBuf [4]extent.SNExtent // per-page update sets, on the stack
	for len(data) > 0 {
		pi := off / ps
		po := off % ps
		n := int64(len(data))
		if n > ps-po {
			n = ps - po
		}
		pg := sp.pages[pi]
		if pg == nil {
			pg = c.pool.Get().(*page)
			sp.pages[pi] = pg
			c.pages.Add(1)
		}
		rng := extent.Extent{Start: po, End: po + n}
		// The SN-overwrite rule: only the sub-ranges where sn wins
		// actually replace cached bytes. Local writes win ties (the
		// holder's operations are locally ordered); clean fills lose
		// them (the cached copy is at least as new as the server's).
		won := pg.valid.InsertInto(wonBuf[:], rng, sn, !markDirty)
		for _, w := range won {
			copy(pg.buf[w.Start:w.End], data[w.Start-po:w.End-po])
		}
		if markDirty {
			for _, w := range won {
				pg.dirty.InsertInto(dirtyBuf[:], w.Extent, w.SN, false)
			}
		}
		before := pg.dirtyBytes
		c.refreshPage(pg)
		// A dirty write that grows the page's dirty count by less than
		// its length superseded the difference.
		if d := n - (pg.dirtyBytes - before); markDirty && d > 0 {
			c.superseded.Add(d)
		}
		data = data[n:]
		off += n
	}
}

// refreshPage recomputes one page's byte counts from its extent lists
// (a handful of entries) and applies the delta to the atomic cache
// totals. Every mutation of a page's lists must be followed by a call;
// the caller holds the stripe mutex.
func (c *Cache) refreshPage(pg *page) {
	var dirty, cached int64
	for _, e := range pg.dirty.Entries() {
		dirty += e.Len()
	}
	for _, e := range pg.valid.Entries() {
		cached += e.Len()
	}
	c.dirty.Add(dirty - pg.dirtyBytes)
	c.cached.Add(cached - pg.cachedBytes)
	pg.dirtyBytes, pg.cachedBytes = dirty, cached
}

// Read copies cached data overlapping [off, off+len(buf)) into buf and
// returns the stripe-local ranges that were satisfied from cache.
func (c *Cache) Read(stripe uint64, off int64, buf []byte) []extent.Extent {
	sp := c.lookup(stripe)
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := c.cfg.PageSize
	var got []extent.Extent
	var hitBuf [4]extent.SNExtent
	want := extent.Span(off, int64(len(buf)))
	for pi := want.Start / ps; pi*ps < want.End; pi++ {
		pg := sp.pages[pi]
		if pg == nil {
			continue
		}
		in, ok := local(want, pi, ps)
		if !ok {
			continue
		}
		for _, e := range pg.valid.OverlappingInto(hitBuf[:], in) {
			abs := extent.Extent{Start: e.Start + pi*ps, End: e.End + pi*ps}
			copy(buf[abs.Start-off:abs.End-off], pg.buf[e.Start:e.End])
			if got == nil {
				got = make([]extent.Extent, 0, (want.End-1)/ps-pi+1)
			}
			got = append(got, abs)
		}
	}
	return got
}

// Covered reports whether [off, off+n) is fully cached.
func (c *Cache) Covered(stripe uint64, off, n int64) bool {
	sp := c.lookup(stripe)
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := c.cfg.PageSize
	want := extent.Span(off, n)
	for pi := want.Start / ps; pi*ps < want.End; pi++ {
		pg := sp.pages[pi]
		if pg == nil {
			return false
		}
		if in, _ := local(want, pi, ps); !pg.valid.Covered(in) {
			return false
		}
	}
	return true
}

// CollectDirty removes and returns the dirty blocks of stripe within rng
// whose SN is at most maxSN, merged into per-SN contiguous blocks ready
// for a flush RPC, in offset order. The data is copied; a concurrent
// write re-dirties its range and will be flushed again later.
func (c *Cache) CollectDirty(stripe uint64, rng extent.Extent, maxSN extent.SN) []Block {
	return c.AppendDirty(nil, stripe, rng, maxSN)
}

// AppendDirty is CollectDirty appending the blocks to dst, so a caller
// that flushes often collects into the same slice each time.
//
// It walks the range's pages in index order twice: first to find the
// blocks — a block is a maximal run of byte-adjacent dirty extents with
// one SN, however many pages it spans — then to give each block a buffer
// of its final length and copy every page's share into it once.
func (c *Cache) AppendDirty(dst []Block, stripe uint64, rng extent.Extent, maxSN extent.SN) []Block {
	sp := c.lookup(stripe)
	if sp == nil {
		return dst
	}
	sp.mu.Lock()
	ps := c.cfg.PageSize
	pages := sp.pagesIn(rng, ps, true)
	base, blocks := len(dst), dst
	var dirtyBuf [4]extent.SNExtent
	for _, at := range pages {
		in, _ := local(rng, at.pi, ps)
		for _, e := range at.pg.dirty.OverlappingInto(dirtyBuf[:], in) {
			if e.SN > maxSN {
				continue
			}
			abs := extent.Extent{Start: e.Start + at.pi*ps, End: e.End + at.pi*ps}
			if n := len(blocks); n > base && blocks[n-1].SN == e.SN && blocks[n-1].Range.End == abs.Start {
				blocks[n-1].Range.End = abs.End
				continue
			}
			blocks = append(blocks, Block{Range: abs, SN: e.SN})
		}
	}
	next := 0 // pages[next:] can still overlap the current block
	for i := base; i < len(blocks); i++ {
		b := &blocks[i]
		b.Data = wire.GetBuf(int(b.Range.Len()))
		for j := next; j < len(pages) && pages[j].pi*ps < b.Range.End; j++ {
			at := pages[j]
			if (at.pi+1)*ps <= b.Range.Start {
				next = j + 1
				continue
			}
			in, _ := local(b.Range, at.pi, ps)
			copy(b.Data[in.Start+at.pi*ps-b.Range.Start:], at.pg.buf[in.Start:in.End])
		}
	}
	if len(blocks) > base {
		for _, at := range pages {
			in, _ := local(rng, at.pi, ps)
			at.pg.dirty.RemoveLE(in, maxSN)
			c.refreshPage(at.pg)
		}
	}
	sp.releasePages()
	sp.mu.Unlock()
	c.signalFlow()
	return blocks
}

// Redirty reinstates blocks whose flush failed. It goes by each block's
// range and SN only: the bytes are still in the pages, and the block's
// Data may already have gone back to its pool.
func (c *Cache) Redirty(stripe uint64, blocks []Block) {
	sp := c.stripe(stripe)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := c.cfg.PageSize
	var scratch [4]extent.SNExtent
	for _, b := range blocks {
		for pi := b.Range.Start / ps; pi*ps < b.Range.End; pi++ {
			if pg := sp.pages[pi]; pg != nil {
				in, _ := local(b.Range, pi, ps)
				pg.dirty.InsertInto(scratch[:], in, b.SN, false)
				c.refreshPage(pg)
			}
		}
	}
}

// Invalidate drops cached data (clean and dirty) of stripe within rng.
// It is called when a lock is released: without the lock, cached copies
// may go stale the moment another client writes.
func (c *Cache) Invalidate(stripe uint64, rng extent.Extent) {
	c.invalidate(stripe, rng, ^extent.SN(0))
}

// InvalidateUpTo drops cached data of stripe within rng whose SN is at
// most sn. Cancel paths use it so that data written under a NEWER lock
// of the same client — whose (expanded) range can overlap the canceling
// lock's — keeps its cache protection.
func (c *Cache) InvalidateUpTo(stripe uint64, rng extent.Extent, sn extent.SN) {
	c.invalidate(stripe, rng, sn)
}

func (c *Cache) invalidate(stripe uint64, rng extent.Extent, sn extent.SN) {
	sp := c.lookup(stripe)
	if sp == nil {
		return
	}
	sp.mu.Lock()
	ps := c.cfg.PageSize
	for _, at := range sp.pagesIn(rng, ps, false) {
		in, _ := local(rng, at.pi, ps)
		at.pg.valid.RemoveLE(in, sn)
		at.pg.dirty.RemoveLE(in, sn)
		c.refreshPage(at.pg)
		if at.pg.valid.Len() == 0 {
			delete(sp.pages, at.pi)
			c.pages.Add(-1)
			c.dropPage(at.pg)
		}
	}
	sp.releasePages()
	sp.mu.Unlock()
	c.signalFlow()
}

// DirtyStripes returns the stripes currently holding dirty data, shard
// by shard and in ascending id order within a shard: it is the flush
// order of Shutdown and of the flush daemon, so it must not follow Go's
// map order.
func (c *Cache) DirtyStripes() []uint64 {
	var out []uint64
	for _, s := range c.stripeRefs() {
		s.sp.mu.Lock()
		for _, pg := range s.sp.pages {
			if pg.dirty.Len() > 0 {
				out = append(out, s.id)
				break
			}
		}
		s.sp.mu.Unlock()
	}
	return out
}

// stripeRef is a stripe with its id.
type stripeRef struct {
	id uint64
	sp *stripePages
}

// stripeRefs snapshots every stripe, shard by shard and in ascending id
// order within a shard, each shard under its read lock; the caller
// visits them without it, so it may lock the stripe.
func (c *Cache) stripeRefs() []stripeRef {
	var out []stripeRef
	for i := range c.shards {
		sh := &c.shards[i]
		base := len(out)
		sh.mu.RLock()
		for id, sp := range sh.stripes {
			out = append(out, stripeRef{id, sp})
		}
		sh.mu.RUnlock()
		slices.SortFunc(out[base:], func(a, b stripeRef) int { return cmp.Compare(a.id, b.id) })
	}
	return out
}

// reclaim evicts clean pages when the pool bound is exceeded, modelling
// the prototype's reclamation of cached pages back to the registered
// memory pool. It evicts in ascending (stripe, page) order, so a seeded
// run replays, and locks one stripe at a time.
func (c *Cache) reclaim() {
	if c.cfg.PoolBytes <= 0 {
		return
	}
	if c.pages.Load()*c.cfg.PageSize <= c.cfg.PoolBytes {
		return
	}
	refs := c.stripeRefs()
	slices.SortFunc(refs, func(a, b stripeRef) int { return cmp.Compare(a.id, b.id) })
	for _, s := range refs {
		sp := s.sp
		sp.mu.Lock()
		clean := sp.visit[:0]
		for pi, pg := range sp.pages {
			if pg.dirty.Len() == 0 {
				clean = append(clean, pageAt{pi, pg})
			}
		}
		slices.SortFunc(clean, func(a, b pageAt) int { return cmp.Compare(a.pi, b.pi) })
		sp.visit = clean
		done := false
		for _, at := range clean {
			at.pg.valid.Reset()
			c.refreshPage(at.pg)
			delete(sp.pages, at.pi)
			c.dropPage(at.pg)
			if c.pages.Add(-1)*c.cfg.PageSize <= c.cfg.PoolBytes {
				done = true
				break
			}
		}
		sp.releasePages()
		sp.mu.Unlock()
		if done {
			return
		}
	}
}

// String summarizes the cache for debugging.
func (c *Cache) String() string {
	return fmt.Sprintf("pagecache{pages=%d dirty=%dB cached=%dB}",
		c.pages.Load(), c.dirty.Load(), c.cached.Load())
}
