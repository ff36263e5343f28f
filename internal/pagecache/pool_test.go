package pagecache

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// TestPoolBoundsHostMemory: the host memory behind a cache is its pages
// × PageSize, so PoolBytes bounds it. Both cases put 32 MiB through one
// stripe under a 1 MiB pool, then measure the heap the cache keeps
// after two collections (the first moves the page pool to its victim
// cache, the second empties it); run with -v to see the figures
// recorded in EXPERIMENTS.md:
//
//   - trimmed: 1 MiB fills, each trimmed by reclaim as the next fill
//     pushes the cache over the pool;
//   - pinned: 1 MiB writes, flushed but for their first page before
//     reclaim trims them, so a dirty page of every write stays.
func TestPoolBoundsHostMemory(t *testing.T) {
	const (
		pool   = 1 << 20
		size   = 1 << 20
		writes = 32
	)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	data := make([]byte, size)
	for _, pinned := range []bool{false, true} {
		base := heap()
		c := New(Config{PoolBytes: pool})
		for i := int64(0); i < writes; i++ {
			if !pinned {
				c.Fill(1, i*size, data, 1)
				continue
			}
			c.Write(1, i*size, data, 1)
			for _, b := range c.CollectDirty(1, extent.New(i*size+DefaultPageSize, (i+1)*size), 1) {
				wire.PutBuf(b.Data)
			}
			c.reclaim()
		}
		live := heap() - base
		if got := c.CachedBytes(); got > pool {
			t.Fatalf("pinned=%v: cached %d bytes, pool %d", pinned, got, pool)
		}
		t.Logf("pinned=%v: %d KiB cached under a %d KiB pool, %.2f MiB live heap = %.2f x PoolBytes",
			pinned, c.CachedBytes()>>10, pool>>10, float64(live)/(1<<20), float64(live)/pool)
		if live > pool*5/4 {
			t.Errorf("pinned=%v: the cache keeps %d bytes live, want <= 1.25 x PoolBytes (%d)", pinned, live, pool*5/4)
		}
		runtime.KeepAlive(c)
	}
}

// TestIterationOrderDeterministic: DirtyStripes is the flush order of
// Shutdown and of the flush daemon, and reclaim decides which pages a
// bounded cache keeps; neither may follow Go's map order, or a seeded
// run does not replay. Two stripes each hold a dirty page and eight
// clean ones under a 12-page pool, and 20 fresh caches must list the
// stripes in ascending order and evict the same pages: the first six
// clean pages of the lower stripe.
func TestIterationOrderDeterministic(t *testing.T) {
	const ps = DefaultPageSize
	ids := []uint64{1, 2}
	data := make([]byte, 8*ps)
	for run := 0; run < 20; run++ {
		c := New(Config{PoolBytes: 12 * ps})
		for _, id := range slices.Backward(ids) {
			c.Write(id, 0, data[:ps], 1)
			c.Fill(id, ps, data, 1) // the second fill reclaims six pages
		}
		if got := c.DirtyStripes(); !slices.Equal(got, ids) {
			t.Fatalf("run %d: DirtyStripes = %v, want %v", run, got, ids)
		}
		for _, id := range ids {
			for pi := int64(0); pi < 9; pi++ {
				evicted := id == ids[0] && pi >= 1 && pi <= 6
				if c.Covered(id, pi*ps, ps) == evicted {
					t.Fatalf("run %d: stripe %d page %d evicted = %v, want %v", run, id, pi, !evicted, evicted)
				}
			}
		}
	}
}

// TestPoolRecyclingStress: on the wall clock, goroutines write to, fill,
// read back, flush and invalidate their own stripes in two caches that
// share the page pool — one bounded, so fills on any stripe reclaim
// clean pages on the others — and verify every byte they read. A page
// handed back while still mapped, or handed out twice, shows up as
// another goroutine's bytes, as the -race build's 0xDB poison, or as a
// DATA RACE.
func TestPoolRecyclingStress(t *testing.T) {
	const ps = DefaultPageSize
	caches := [2]*Cache{New(Config{}), New(Config{PoolBytes: 32 * ps})}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, stripe := caches[g%2], uint64(g)
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 8*ps)
			for i := 0; i < 200; i++ {
				off := rng.Int63n(8 * ps)
				n := rng.Int63n(8*ps) + 1
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(j*7 + i*13 + g*31)
				}
				sn := extent.SN(i + 1) // newer than everything the stripe holds
				dirty := i%3 != 0
				if dirty {
					c.Write(stripe, off, data, sn)
				} else {
					c.Fill(stripe, off, data, sn)
				}
				// A fill may lose pages to another goroutine's reclaim; a
				// write keeps them all. What is there must be this op's.
				got := c.Read(stripe, off, buf[:n])
				var have int64
				for _, e := range got {
					have += e.Len()
					for p := e.Start; p < e.End; p++ {
						if buf[p-off] != data[p-off] {
							errs <- "stripe read back another owner's bytes"
							return
						}
					}
				}
				if dirty && have != n {
					errs <- "dirty bytes went missing"
					return
				}
				if dirty {
					blocks := c.CollectDirty(stripe, extent.Span(off, n), sn)
					if len(blocks) != 1 || string(blocks[0].Data) != string(data) {
						errs <- "flushed bytes differ from the bytes written"
						return
					}
					wire.PutBuf(blocks[0].Data)
				}
				inv := extent.Span(off+rng.Int63n(n), rng.Int63n(4*ps)+1)
				c.Invalidate(stripe, inv)
				if got := c.Read(stripe, inv.Start, buf[:inv.Len()]); len(got) != 0 {
					errs <- "invalidated bytes still cached"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
