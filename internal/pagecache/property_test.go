package pagecache

import (
	"math/rand"
	"testing"

	"ccpfs/internal/extent"
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

// TestSlabSharingMatchesOracle: pages that share a slab live and die
// on their own. Half of one write's pages are invalidated and rewritten
// by a misaligned write (whose new pages come from a second slab, next
// to pages of the first it overwrites in place), and every byte, the
// coverage and the dirty accounting must match the byte model.
func TestSlabSharingMatchesOracle(t *testing.T) {
	const ps, k = DefaultPageSize, 16
	rng := rand.New(rand.NewSource(11))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	c := New(Config{})
	o := newOracle()
	first := random(k * ps)
	c.Write(1, 0, first, 1)
	o.write(0, first, 1)
	for pi := int64(0); pi < k; pi += 2 {
		e := extent.Span(pi*ps, ps)
		c.Invalidate(1, e)
		o.invalidate(e, ^extent.SN(0))
	}
	if got := c.pages.Load(); got != k/2 {
		t.Fatalf("%d pages after invalidating half, want %d", got, k/2)
	}
	second := random((k - 1) * ps)
	c.Write(1, ps/2, second, 2)
	o.write(ps/2, second, 2)
	fill := random(ps)
	c.Fill(1, (k-1)*ps, fill, 3) // clean bytes into the last page's hole and past it
	o.fill((k-1)*ps, fill, 3)

	const space = (k + 1) * ps
	buf := make([]byte, space)
	c.Read(1, 0, buf)
	for p := int64(0); p < space; p++ {
		want, ok := o.val[p]
		if covered := c.Covered(1, p, 1); covered != ok {
			t.Fatalf("byte %d coverage = %v, oracle %v", p, covered, ok)
		}
		if ok && buf[p] != want {
			t.Fatalf("byte %d = %x, oracle %x", p, buf[p], want)
		}
	}
	if got, want := c.DirtyBytes(), int64(len(o.dirtySN)); got != want {
		t.Fatalf("dirty = %d, oracle %d", got, want)
	}
	for _, b := range c.CollectDirty(1, extent.Span(0, space), 2) {
		for i, got := range b.Data {
			if p := b.Range.Start + int64(i); o.val[p] != got {
				t.Fatalf("flushed byte %d = %x, oracle %x", p, got, o.val[p])
			}
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
