package pagecache

import (
	"runtime"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// TestSlabPinningWorstCase measures what the package doc warns of: a
// live page keeps its whole slab reachable and PoolBytes counts pages,
// so the host memory behind the cache can exceed PoolBytes. Both cases
// put 32 slabs of 1 MiB into one stripe under a 1 MiB pool and report
// the live heap the cache keeps against PoolBytes (recorded in
// EXPERIMENTS.md; run with -v to see it):
//
//   - trimmed: 1 MiB fills, each trimmed by reclaim page by page, in
//     reclaim's own (map) order, as the next fill pushes the cache over
//     the pool;
//   - pinned: 1 MiB writes, flushed but for their first page before
//     reclaim trims them. Reclaim never evicts a dirty page, so one
//     4 KiB page per slab stays and keeps the whole 1 MiB reachable.
//
// It checks only that the page accounting itself stays within the pool.
func TestSlabPinningWorstCase(t *testing.T) {
	const (
		pool  = 1 << 20
		size  = 1 << 20
		slabs = 32
	)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	data := make([]byte, size)
	for _, pinned := range []bool{false, true} {
		base := heap()
		c := New(Config{PoolBytes: pool})
		for i := int64(0); i < slabs; i++ {
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
		t.Logf("pinned=%v: %d KiB cached under a %d KiB pool, %.1f MiB live heap = %.1f x PoolBytes",
			pinned, c.CachedBytes()>>10, pool>>10, float64(live)/(1<<20), float64(live)/pool)
		runtime.KeepAlive(c)
	}
}
