package pagecache

import (
	"math/rand"
	"slices"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// oracle is a brute-force byte-level model of the cache: per byte, the
// value and SN of the newest content, plus the dirty state with its own
// SN (a clean fill can raise a byte's content SN without touching its
// dirty marker, so the two are tracked separately — exactly as the
// cache keeps separate valid and dirty extent lists).
type oracle struct {
	val     map[int64]byte
	sn      map[int64]extent.SN
	dirtySN map[int64]extent.SN
}

func newOracle() *oracle {
	return &oracle{
		val:     map[int64]byte{},
		sn:      map[int64]extent.SN{},
		dirtySN: map[int64]extent.SN{},
	}
}

// write models a local dirty write: ties win.
func (o *oracle) write(off int64, data []byte, sn extent.SN) {
	for i, b := range data {
		p := off + int64(i)
		if cur, ok := o.sn[p]; !ok || sn >= cur {
			o.val[p] = b
			o.sn[p] = sn
			if cur, ok := o.dirtySN[p]; !ok || sn >= cur {
				o.dirtySN[p] = sn
			}
		}
	}
}

// fill models a clean server fill: ties lose, dirty state untouched.
func (o *oracle) fill(off int64, data []byte, sn extent.SN) {
	for i, b := range data {
		p := off + int64(i)
		if cur, ok := o.sn[p]; !ok || sn > cur {
			o.val[p] = b
			o.sn[p] = sn
		}
	}
}

func (o *oracle) collect(rng extent.Extent, maxSN extent.SN) {
	for p, dsn := range o.dirtySN {
		if rng.ContainsOff(p) && dsn <= maxSN {
			delete(o.dirtySN, p)
		}
	}
}

func (o *oracle) invalidate(rng extent.Extent, maxSN extent.SN) {
	for p := range o.val {
		if rng.ContainsOff(p) && o.sn[p] <= maxSN {
			delete(o.val, p)
			delete(o.sn, p)
		}
	}
	for p, dsn := range o.dirtySN {
		if rng.ContainsOff(p) && dsn <= maxSN {
			delete(o.dirtySN, p)
		}
	}
}

// TestCacheMatchesOracle drives the cache with random writes, fills,
// dirty collections, and SN-bounded invalidations, comparing every byte
// and the dirty accounting against the brute-force model after each
// step. This is the invariant that keeps early-granted overlapping
// writes coherent in the client.
func TestCacheMatchesOracle(t *testing.T) {
	const space = 3 * DefaultPageSize
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		c := New(Config{})
		o := newOracle()
		for step := 0; step < 60; step++ {
			off := rng.Int63n(space - 1)
			n := rng.Int63n(min64(600, space-off-1)) + 1
			sn := extent.SN(rng.Intn(6))
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			switch rng.Intn(5) {
			case 0, 1: // dirty write
				c.Write(1, off, data, sn)
				o.write(off, data, sn)
			case 2: // clean fill
				c.Fill(1, off, data, sn)
				o.fill(off, data, sn)
			case 3: // collect dirty (flush) over a random range
				e := extent.Span(off, n)
				blocks := c.CollectDirty(1, e, sn)
				// Flushed block contents must match the oracle bytes.
				for _, b := range blocks {
					for i, got := range b.Data {
						p := b.Range.Start + int64(i)
						if o.val[p] != got {
							t.Fatalf("trial %d step %d: flushed byte %d = %x, oracle %x",
								trial, step, p, got, o.val[p])
						}
					}
				}
				o.collect(e, sn)
			case 4: // SN-bounded invalidation (lock cancel)
				e := extent.Span(off, n)
				c.InvalidateUpTo(1, e, sn)
				o.invalidate(e, sn)
			}
			// Dirty byte accounting must agree exactly.
			if got, want := c.DirtyBytes(), int64(len(o.dirtySN)); got != want {
				t.Fatalf("trial %d step %d: dirty = %d, oracle %d", trial, step, got, want)
			}
		}
		// Full content comparison at the end of the trial.
		buf := make([]byte, space)
		c.Read(1, 0, buf)
		for p := int64(0); p < space; p++ {
			want, ok := o.val[p]
			covered := c.Covered(1, p, 1)
			if covered != ok {
				t.Fatalf("trial %d: byte %d coverage = %v, oracle %v", trial, p, covered, ok)
			}
			if ok && buf[p] != want {
				t.Fatalf("trial %d: byte %d = %x, oracle %x", trial, p, buf[p], want)
			}
		}
	}
}

// reclaimModel is Cache.reclaim over the byte model of one cache's
// stripes (os[i] is stripe i+1): a page exists while it holds a valid
// byte, and while the pages exceed bound, clean ones go in ascending
// (stripe, page) order.
func reclaimModel(os []*oracle, ps, bound int64) {
	pagesOf := func(o *oracle) []int64 {
		var out []int64
		for p := range o.val {
			if pi := p / ps; !slices.Contains(out, pi) {
				out = append(out, pi)
			}
		}
		slices.Sort(out)
		return out
	}
	total := int64(0)
	for _, o := range os {
		total += int64(len(pagesOf(o)))
	}
	for _, o := range os {
		for _, pi := range pagesOf(o) {
			if total*ps <= bound {
				return
			}
			pg, dirty := extent.Span(pi*ps, ps), false
			for p := range o.dirtySN {
				dirty = dirty || pg.ContainsOff(p)
			}
			if !dirty {
				o.invalidate(pg, ^extent.SN(0))
				total--
			}
		}
	}
}

// livePages returns the set of pages c's stripes hold.
func livePages(c *Cache) map[*page]bool {
	out := map[*page]bool{}
	for _, s := range c.stripeRefs() {
		s.sp.mu.Lock()
		for _, at := range s.sp.pages {
			out[at.pg] = true
		}
		s.sp.mu.Unlock()
	}
	return out
}

// TestPoolRecyclingMatchesOracle: pages recycled through the shared
// pool live and die on their own. Two caches of one page size — one
// unbounded, one under a PoolBytes bound, so that every fill reclaims —
// take random writes, fills, collects, partial Invalidate and
// InvalidateUpTo calls and bounded reclaims over three stripes each.
// After every step the touched cache's bytes, coverage, page count and
// dirty and cached accounting must match the byte model, so a page
// that went back while still mapped, or came out of the pool with
// another page's extents, fails here; and each stripe's slice must be
// strictly ascending, hold no page with an empty valid list and, over
// all stripes, as many pages as the cache counts. In -race builds every page that
// left a stripe must have been poisoned: a reader that kept it would
// read 0xDB, not data.
func TestPoolRecyclingMatchesOracle(t *testing.T) {
	const (
		ps      = 256 // a page size of its own: these two caches share its pool
		space   = 4 * ps
		stripes = 3
		bound   = 6 * ps
	)
	type model struct {
		c     *Cache
		o     []*oracle
		bound int64
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		ms := []*model{
			{c: New(Config{PageSize: ps})},
			{c: New(Config{PageSize: ps, PoolBytes: bound}), bound: bound},
		}
		for _, m := range ms {
			for range stripes {
				m.o = append(m.o, newOracle())
			}
		}
		for step := 0; step < 250; step++ {
			m := ms[rng.Intn(len(ms))]
			s := rng.Intn(stripes)
			id, o := uint64(s+1), m.o[s]
			off := rng.Int63n(space - 1)
			e := extent.Span(off, rng.Int63n(space-off)+1)
			sn := extent.SN(rng.Intn(6))
			data := make([]byte, e.Len())
			rng.Read(data)
			before := livePages(m.c)
			switch op := rng.Intn(6); op {
			case 0, 1: // dirty write
				m.c.Write(id, off, data, sn)
				o.write(off, data, sn)
			case 2: // clean fill, which reclaims when the cache is bounded
				m.c.Fill(id, off, data, sn)
				o.fill(off, data, sn)
				if m.bound > 0 {
					reclaimModel(m.o, ps, m.bound)
				}
			case 3: // collect dirty (flush)
				for _, b := range m.c.CollectDirty(id, e, sn) {
					for i, got := range b.Data {
						if p := b.Range.Start + int64(i); o.val[p] != got {
							t.Fatalf("trial %d step %d: flushed byte %d of stripe %d = %x, oracle %x",
								trial, step, p, id, got, o.val[p])
						}
					}
				}
				o.collect(e, sn)
			case 4: // partial invalidation: a lock release or an SN-bounded cancel
				if rng.Intn(2) == 0 {
					sn = ^extent.SN(0)
					m.c.Invalidate(id, e)
				} else {
					m.c.InvalidateUpTo(id, e, sn)
				}
				o.invalidate(e, sn)
			case 5: // bounded reclaim (a no-op on the unbounded cache)
				m.c.reclaim()
				if m.bound > 0 {
					reclaimModel(m.o, ps, m.bound)
				}
			}
			after := livePages(m.c)
			for pg := range before {
				if after[pg] || !wire.RaceEnabled {
					continue
				}
				for i, b := range pg.buf {
					if b != 0xDB {
						t.Fatalf("trial %d step %d: byte %d of a recycled page = %x, want the 0xDB poison", trial, step, i, b)
					}
				}
			}
			checkModel(t, m.c, m.o, ps, space)
			checkSlices(t, m.c)
		}
	}
}

// checkModel compares every byte of c's stripes (os[i] is stripe i+1,
// each space bytes long), their coverage, c's page count and its dirty
// and cached byte counts against the byte model.
func checkModel(t *testing.T, c *Cache, os []*oracle, ps, space int64) {
	t.Helper()
	var pages, dirty, cached int64
	buf := make([]byte, space)
	for s, o := range os {
		id := uint64(s + 1)
		covered := make([]bool, space)
		for _, e := range c.Read(id, 0, buf) {
			for p := e.Start; p < e.End; p++ {
				covered[p] = true
			}
		}
		seen := map[int64]bool{}
		for p := int64(0); p < space; p++ {
			want, ok := o.val[p]
			if covered[p] != ok {
				t.Fatalf("stripe %d byte %d coverage = %v, oracle %v", id, p, covered[p], ok)
			}
			if ok && buf[p] != want {
				t.Fatalf("stripe %d byte %d = %x, oracle %x", id, p, buf[p], want)
			}
			if ok {
				seen[p/ps] = true
			}
		}
		pages += int64(len(seen))
		dirty += int64(len(o.dirtySN))
		cached += int64(len(o.val))
	}
	if got := c.pages.Load(); got != pages {
		t.Fatalf("%d pages, oracle %d", got, pages)
	}
	if got := c.DirtyBytes(); got != dirty {
		t.Fatalf("dirty = %d, oracle %d", got, dirty)
	}
	if got := c.CachedBytes(); got != cached {
		t.Fatalf("cached = %d, oracle %d", got, cached)
	}
}

// checkSlices checks the shape of c's stripe slices: each strictly
// ascending by page index, no page in one with an empty valid list (it
// should have left), and as many pages in all as c counts.
func checkSlices(t *testing.T, c *Cache) {
	t.Helper()
	var n int64
	for _, s := range c.stripeRefs() {
		s.sp.mu.Lock()
		for i, at := range s.sp.pages {
			if i > 0 && at.pi <= s.sp.pages[i-1].pi {
				t.Fatalf("stripe %d: page %d at position %d follows page %d", s.id, at.pi, i, s.sp.pages[i-1].pi)
			}
			if at.pg.valid.Len() == 0 {
				t.Fatalf("stripe %d: page %d holds no valid byte", s.id, at.pi)
			}
		}
		n += int64(len(s.sp.pages))
		s.sp.mu.Unlock()
	}
	if got := c.pages.Load(); got != n {
		t.Fatalf("the cache counts %d pages, its slices hold %d", got, n)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
