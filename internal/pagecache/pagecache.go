// Package pagecache implements the ccPFS client cache of §IV-A: data is
// divided into pages (4 KB by default), and each page keeps an extent
// list recording which byte ranges hold valid data and under which lock
// sequence number they were written. Written data with a larger SN
// overwrites smaller ones on insert, which is what keeps the cache
// coherent when early grant lets conflicting writes from the same client
// overlap in flight.
//
// A stripe keeps its pages in one slice ordered by page index, so every
// operation finds its range by binary search and walks it in order: a
// flush or invalidation of one lock's range costs that range's pages,
// and one of a lock expanded to [0, Inf) a walk of the stripe, never a
// sort. A write inserts each run of its missing pages with one shift.
//
// Pages come from a process-wide pool, one per page size, shared by
// every cache: a page for an absent index is drawn with its header and
// its PageSize bytes together, and a page goes back when it leaves its
// stripe's slice — when invalidate or reclaim drops it, the only two
// places that know nobody else holds it (page bytes are touched only
// under the stripe mutex, and Read, AppendDirty and write all copy). So
// the host memory behind a cache is its pages × PageSize, which
// Config.PoolBytes (the prototype's pre-registered RDMA page pool)
// bounds. In -race builds a page is poisoned as it goes back, as wire's
// buffers are.
//
// Concurrency: each stripe carries its own mutex guarding its page slice
// and page contents, so IO on different stripes never contends; the
// stripe map has one mutex of its own, held only for lookup/insert. The
// global dirty/cached/page accounting is atomic; the MaxDirty
// backpressure of §IV-C1 runs through a separate flow-control gate
// (flowMu + a sim.Cond) that admits writers by reservation, preserving
// the strict dirty-bytes bound without serializing the data path. See
// DESIGN.md §6.
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
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// DefaultPageSize matches the paper's 4 KB management unit.
const DefaultPageSize = 4096

// Block is an SN-tagged data block collected for flushing or filled by a
// read. The Data of a block CollectDirty returns is a pooled buffer
// (wire.GetBuf): a consumer that knows when it is done with the bytes
// may return it with wire.PutBuf, and anyone else leaves it to the
// collector. AppendDirty's caller chooses where Data lives: the client's
// flush path places it in the flush frame that carries the block.
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
	// flushing frees space (4 GB in the paper). Zero means unbounded. A
	// write is always admitted when nothing else is dirty or reserved, so
	// one larger than MaxDirty still completes: dirty bytes can exceed
	// the bound by at most one write.
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

// dropPage returns a page that has just left its stripe's slice to the
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

// stripePages is one stripe's pages plus the mutex guarding them. The
// pages sit in one slice in strictly ascending index order, each holding
// at least one valid byte (a page whose valid list empties leaves the
// slice at once), and nothing else indexes them.
//
// end is what the client knows of where the stripe ends: a lower bound
// that only a truncate can undercut, raised by every write (Write) and
// by what a read reply reports (RaiseEnd). A truncate revokes every
// lock of the stripe, and each revocation's invalidate lowers end to
// the end of the dirty bytes that stay, so a bound learned before the
// truncate does not outlive it.
type stripePages struct {
	mu    sync.Mutex
	pages []pageAt
	end   int64
}

// pageAt is a page with its index.
type pageAt struct {
	pi int64
	pg *page
}

// search returns the position in sp.pages of the first page whose index
// is at least pi.
func (sp *stripePages) search(pi int64) int {
	lo, hi := 0, len(sp.pages)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sp.pages[m].pi < pi {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// span returns the positions [i, j) in sp.pages of the pages that
// intersect rng.
func (sp *stripePages) span(rng extent.Extent, ps int64) (int, int) {
	if rng.Empty() {
		return 0, 0
	}
	return sp.search(rng.Start / ps), sp.search((rng.End-1)/ps + 1)
}

// insert puts fresh pages for indices lo..hi at position i, shifting the
// pages above them once, and returns how many it added. The caller
// holds sp.mu and has checked that none of those indices is present.
func (sp *stripePages) insert(i int, lo, hi int64, pool *sync.Pool) int64 {
	n, old := int(hi-lo+1), len(sp.pages)
	sp.pages = slices.Grow(sp.pages, n)[:old+n]
	copy(sp.pages[i+n:], sp.pages[i:old])
	for k := range n {
		sp.pages[i+k] = pageAt{lo + int64(k), pool.Get().(*page)}
	}
	return int64(n)
}

// cut removes sp.pages[k:j], which the caller has already moved or
// dropped, by shifting the pages above j down once.
func (sp *stripePages) cut(k, j int) {
	if k == j {
		return
	}
	n := copy(sp.pages[k:], sp.pages[j:])
	clear(sp.pages[k+n:])
	sp.pages = sp.pages[:k+n]
}

// dirtyEnd returns the end of the stripe's last dirty byte, 0 if none;
// the caller holds sp.mu.
func (sp *stripePages) dirtyEnd(ps int64) int64 {
	for i := len(sp.pages) - 1; i >= 0; i-- {
		at := sp.pages[i]
		if at.pg.dirtyBytes == 0 {
			continue
		}
		var end int64
		for _, e := range at.pg.dirty.Entries() {
			end = max(end, e.End)
		}
		return at.pi*ps + end
	}
	return 0
}

// Cache is one client's page cache across all stripes it touches.
// Ranges are stripe-local byte offsets keyed by lock resource.
type Cache struct {
	cfg  Config
	clk  sim.Clock
	mem  sim.Device // serializes simulated cache-copy time
	pool *sync.Pool // poolFor(cfg.PageSize)

	// mu guards only the stripe map (lookup/insert).
	mu      sync.RWMutex
	stripes map[uint64]*stripePages

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
	c := &Cache{cfg: cfg, pool: poolFor(cfg.PageSize), stripes: make(map[uint64]*stripePages)}
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
// are never removed from the stripe map (invalidate empties them in
// place), so the pointer stays valid without the map lock.
func (c *Cache) stripe(id uint64) *stripePages {
	if sp := c.lookup(id); sp != nil {
		return sp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.stripes[id]
	if sp == nil {
		sp = &stripePages{}
		c.stripes[id] = sp
	}
	return sp
}

// lookup returns stripe id's page set without creating it.
func (c *Cache) lookup(id uint64) *stripePages {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stripes[id]
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
		// cannot collectively overshoot it. A write that finds nothing
		// else dirty or reserved goes in whatever its size: no flush
		// could make room for it.
		c.flowMu.Lock()
		for {
			held := c.dirty.Load() + c.pending
			if held == 0 || held+need <= c.cfg.MaxDirty {
				break
			}
			c.flow.Wait(context.Background(), time.Time{})
		}
		c.pending += need
		c.flowMu.Unlock()
	}
	sp := c.stripe(stripe)
	sp.mu.Lock()
	c.write(sp, off, data, sn, true)
	sp.end = max(sp.end, off+int64(len(data)))
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

// End returns what the cache knows of where stripe ends (see
// stripePages): the stripe ends there or later.
func (c *Cache) End(stripe uint64) int64 {
	sp := c.lookup(stripe)
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.end
}

// RaiseEnd records that stripe ends at end or later. The caller holds a
// lock of the stripe while it learns end, so a truncate that could undo
// it revokes that lock, and the invalidate drops end again.
func (c *Cache) RaiseEnd(stripe uint64, end int64) {
	sp := c.stripe(stripe)
	sp.mu.Lock()
	sp.end = max(sp.end, end)
	sp.mu.Unlock()
}

// write lands data into sp's pages; the caller holds sp.mu.
func (c *Cache) write(sp *stripePages, off int64, data []byte, sn extent.SN, markDirty bool) {
	ps := c.cfg.PageSize
	var wonBuf, dirtyBuf [4]extent.SNExtent // per-page update sets, on the stack
	var d delta
	var superseded int64
	last := (off + int64(len(data)) - 1) / ps
	for i := sp.search(off / ps); len(data) > 0; i++ {
		pi := off / ps
		po := off % ps
		n := int64(len(data))
		if n > ps-po {
			n = ps - po
		}
		if i == len(sp.pages) || sp.pages[i].pi != pi {
			// pi up to the next cached page, or to the write's last
			// page, are all absent: take them in one shift.
			hi := last
			if i < len(sp.pages) {
				hi = min(hi, sp.pages[i].pi-1)
			}
			d.pages += sp.insert(i, pi, hi, c.pool)
		}
		pg := sp.pages[i].pg
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
		d.refresh(pg)
		// A dirty write that grows the page's dirty count by less than
		// its length superseded the difference.
		if s := n - (pg.dirtyBytes - before); markDirty && s > 0 {
			superseded += s
		}
		data = data[n:]
		off += n
	}
	c.apply(d)
	if superseded > 0 {
		c.superseded.Add(superseded)
	}
}

// delta sums the changes one call makes to the cache's dirty, cached and
// page totals, so the call adds them to the atomics once, not per page.
type delta struct{ dirty, cached, pages int64 }

// refresh recomputes one page's byte counts from its extent lists (a
// handful of entries) and adds the change to d. Every mutation of a
// page's lists must be followed by a call; the caller holds the stripe
// mutex and applies d before dropping it.
func (d *delta) refresh(pg *page) {
	var dirty, cached int64
	for _, e := range pg.dirty.Entries() {
		dirty += e.Len()
	}
	for _, e := range pg.valid.Entries() {
		cached += e.Len()
	}
	d.dirty += dirty - pg.dirtyBytes
	d.cached += cached - pg.cachedBytes
	pg.dirtyBytes, pg.cachedBytes = dirty, cached
}

// apply adds d to the cache totals.
func (c *Cache) apply(d delta) {
	if d.dirty != 0 {
		c.dirty.Add(d.dirty)
	}
	if d.cached != 0 {
		c.cached.Add(d.cached)
	}
	if d.pages != 0 {
		c.pages.Add(d.pages)
	}
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
	i, j := sp.span(want, ps)
	for _, at := range sp.pages[i:j] {
		pi, pg := at.pi, at.pg
		in, _ := local(want, pi, ps)
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
	i := sp.search(want.Start / ps)
	for pi := want.Start / ps; pi*ps < want.End; pi, i = pi+1, i+1 {
		if i == len(sp.pages) || sp.pages[i].pi != pi {
			return false
		}
		if in, _ := local(want, pi, ps); !sp.pages[i].pg.valid.Covered(in) {
			return false
		}
	}
	return true
}

// CollectDirty removes and returns the dirty blocks of stripe within rng
// whose SN is at most maxSN, merged into per-SN contiguous blocks ready
// for a flush RPC, in offset order. The data is copied, each block into
// a pooled buffer of its length; a concurrent write re-dirties its range
// and will be flushed again later.
func (c *Cache) CollectDirty(stripe uint64, rng extent.Extent, maxSN extent.SN) []Block {
	return c.AppendDirty(nil, stripe, rng, maxSN, pooledData)
}

// pooledData is CollectDirty's place: a pooled buffer per block.
func pooledData(blocks []Block) {
	for i := range blocks {
		blocks[i].Data = wire.GetBuf(int(blocks[i].Range.Len()))
	}
}

// AppendDirty is CollectDirty appending the blocks to dst, so a caller
// that flushes often collects into the same slice each time, and
// placing their data where the caller says.
//
// It walks the range's pages in index order twice. The first pass skips
// the clean pages and finds the blocks — a block is a maximal run of
// byte-adjacent dirty extents with one SN, however many pages it spans.
// Then, if there are any, place(blocks) gives each new block its Data:
// a slice of exactly Range.Len() bytes (the client's flush path cuts the
// blocks into flush RPCs and places each in its frame). place runs under
// the stripe mutex and must not call back into the cache. The second
// pass copies every page's share of a block into its Data once, still
// under the mutex, so the collection is one snapshot.
func (c *Cache) AppendDirty(dst []Block, stripe uint64, rng extent.Extent, maxSN extent.SN, place func(blocks []Block)) []Block {
	sp := c.lookup(stripe)
	if sp == nil {
		return dst
	}
	sp.mu.Lock()
	ps := c.cfg.PageSize
	i, j := sp.span(rng, ps)
	pages := sp.pages[i:j]
	base, blocks := len(dst), dst
	var dirtyBuf [4]extent.SNExtent
	for _, at := range pages {
		if at.pg.dirtyBytes == 0 {
			continue
		}
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
	if len(blocks) > base {
		place(blocks[base:])
	}
	next := 0 // pages[next:] can still overlap the current block
	for i := base; i < len(blocks); i++ {
		b := &blocks[i]
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
		var d delta
		for _, at := range pages {
			if at.pg.dirtyBytes == 0 {
				continue
			}
			in, _ := local(rng, at.pi, ps)
			at.pg.dirty.RemoveLE(in, maxSN)
			d.refresh(at.pg)
		}
		c.apply(d)
	}
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
	var d delta
	for _, b := range blocks {
		i, j := sp.span(b.Range, ps)
		for _, at := range sp.pages[i:j] {
			in, _ := local(b.Range, at.pi, ps)
			at.pg.dirty.InsertInto(scratch[:], in, b.SN, false)
			d.refresh(at.pg)
		}
	}
	c.apply(d)
}

// Invalidate drops cached data (clean and dirty) of stripe within rng.
// It is called when a lock is released: without the lock, cached copies
// may go stale the moment another client writes. Like InvalidateUpTo it
// lowers the stripe's end to the end of the dirty bytes that stay.
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
	i, j := sp.span(rng, ps)
	var d delta
	k := i // sp.pages[i:k] are the range's pages that stay
	for _, at := range sp.pages[i:j] {
		in, _ := local(rng, at.pi, ps)
		at.pg.valid.RemoveLE(in, sn)
		at.pg.dirty.RemoveLE(in, sn)
		d.refresh(at.pg)
		if at.pg.valid.Len() == 0 {
			d.pages--
			c.dropPage(at.pg)
			continue
		}
		sp.pages[k] = at
		k++
	}
	sp.cut(k, j)
	sp.end = sp.dirtyEnd(ps)
	c.apply(d)
	sp.mu.Unlock()
	c.signalFlow()
}

// DirtyStripes returns the stripes currently holding dirty data in
// ascending id order: it is the flush order of Shutdown and of the
// flush daemon, so it must not follow Go's map order.
func (c *Cache) DirtyStripes() []uint64 {
	var out []uint64
	for _, s := range c.stripeRefs() {
		s.sp.mu.Lock()
		for _, at := range s.sp.pages {
			if at.pg.dirtyBytes > 0 {
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

// stripeRefs snapshots every stripe in ascending id order under the map
// read lock; the caller visits them without it, so it may lock the
// stripe.
func (c *Cache) stripeRefs() []stripeRef {
	c.mu.RLock()
	out := make([]stripeRef, 0, len(c.stripes))
	for id, sp := range c.stripes {
		out = append(out, stripeRef{id, sp})
	}
	c.mu.RUnlock()
	slices.SortFunc(out, func(a, b stripeRef) int { return cmp.Compare(a.id, b.id) })
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
	for _, s := range c.stripeRefs() {
		sp := s.sp
		sp.mu.Lock()
		var d delta
		done, k := false, 0 // sp.pages[:k] are the pages that stay
		for _, at := range sp.pages {
			if done || at.pg.dirtyBytes > 0 {
				sp.pages[k] = at
				k++
				continue
			}
			at.pg.valid.Reset()
			d.refresh(at.pg)
			c.dropPage(at.pg)
			done = c.pages.Add(-1)*c.cfg.PageSize <= c.cfg.PoolBytes
		}
		sp.cut(k, len(sp.pages))
		c.apply(d)
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
