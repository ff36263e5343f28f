package pagecache

import (
	"fmt"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// BenchmarkWriteDescending is the worst case for inserting pages: 64 KiB
// writes from the top of an empty stripe downwards, so every write adds
// its 16 pages below every page the stripe already holds. Once the
// stripe is full it is invalidated, off the clock, and the walk starts
// again from the top. One op is one write.
func BenchmarkWriteDescending(b *testing.B) {
	const n = 64 << 10
	data := make([]byte, n)
	for _, size := range []int64{16 << 20, 128 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			c := New(Config{})
			off := size
			b.SetBytes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if off == 0 {
					b.StopTimer()
					c.Invalidate(1, extent.New(0, extent.Inf))
					off = size
					b.StartTimer()
				}
				off -= n
				c.Write(1, off, data, 1)
			}
			b.StopTimer()
			c.Invalidate(1, extent.New(0, extent.Inf))
		})
	}
}

// BenchmarkCollectWholeRange is the worst case for a flush: one 64 KiB
// write into a stripe that holds many clean pages, then CollectDirty
// over [0, Inf) — the range of a lock expanded to the whole stripe. One
// op is the write and the collection.
func BenchmarkCollectWholeRange(b *testing.B) {
	const n = 64 << 10
	data := make([]byte, 1<<20)
	for _, pages := range []int64{4 << 10, 64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dk_pages", pages>>10), func(b *testing.B) {
			c := New(Config{})
			size := pages * DefaultPageSize
			for off := int64(0); off < size; off += int64(len(data)) {
				c.Fill(1, off, data, 1)
			}
			mid := size / 2
			sn := extent.SN(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn++
				c.Write(1, mid, data[:n], sn)
				for _, blk := range c.CollectDirty(1, extent.New(0, extent.Inf), sn) {
					wire.PutBuf(blk.Data)
				}
			}
			b.StopTimer()
			c.Invalidate(1, extent.New(0, extent.Inf))
		})
	}
}
