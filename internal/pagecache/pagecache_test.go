package pagecache

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
)

func fill(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := New(Config{})
	data := []byte("the quick brown fox")
	c.Write(1, 100, data, 1)
	buf := make([]byte, len(data))
	got := c.Read(1, 100, buf)
	if len(got) != 1 || got[0] != extent.Span(100, int64(len(data))) {
		t.Fatalf("coverage = %v", got)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q, want %q", buf, data)
	}
	if !c.Covered(1, 100, int64(len(data))) {
		t.Fatal("Covered = false for cached range")
	}
	if c.Covered(1, 100, int64(len(data))+1) {
		t.Fatal("Covered = true beyond cached range")
	}
}

func TestCrossPageWrite(t *testing.T) {
	c := New(Config{PageSize: 4096})
	data := fill(10000, 0xAB)
	c.Write(1, 4000, data, 1)
	buf := make([]byte, len(data))
	c.Read(1, 4000, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-page write corrupted")
	}
	if c.DirtyBytes() != int64(len(data)) {
		t.Fatalf("dirty = %d, want %d", c.DirtyBytes(), len(data))
	}
}

// TestSNOverwriteRule reproduces Fig. 14: a newer write overlapping an
// older one wins on the overlap; an older (stale) write must not clobber
// newer cached data.
func TestSNOverwriteRule(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 0, fill(4096, 0x01), 8) // lockA data, SN 8
	c.Write(1, 2048, fill(6144, 0x02), 9)
	// Now a stale write with SN 7 tries to land on [0, 4096).
	c.Write(1, 0, fill(4096, 0x03), 7)

	buf := make([]byte, 8192)
	c.Read(1, 0, buf)
	for i := 0; i < 2048; i++ {
		if buf[i] != 0x01 {
			t.Fatalf("byte %d = %x, want 01 (SN 8 data)", i, buf[i])
		}
	}
	for i := 2048; i < 8192; i++ {
		if buf[i] != 0x02 {
			t.Fatalf("byte %d = %x, want 02 (SN 9 data)", i, buf[i])
		}
	}
}

func TestCollectDirtyBySN(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 0, fill(2048, 0x01), 8)
	c.Write(1, 2048, fill(2048, 0x02), 9)

	// Cancel of the SN-8 lock flushes only SN <= 8.
	blocks := c.CollectDirty(1, extent.New(0, extent.Inf), 8)
	if len(blocks) != 1 || blocks[0].SN != 8 || blocks[0].Range != extent.New(0, 2048) {
		t.Fatalf("blocks = %+v", blocks)
	}
	if c.DirtyBytes() != 2048 {
		t.Fatalf("dirty = %d, want 2048 left", c.DirtyBytes())
	}
	// The SN-9 data flushes with its own lock.
	blocks = c.CollectDirty(1, extent.New(0, extent.Inf), 9)
	if len(blocks) != 1 || blocks[0].SN != 9 {
		t.Fatalf("blocks = %+v", blocks)
	}
	if c.DirtyBytes() != 0 {
		t.Fatal("dirty data left after both flushes")
	}
	// Data remains readable (clean) after collection.
	if !c.Covered(1, 0, 4096) {
		t.Fatal("collected data no longer cached")
	}
}

// TestSupersededBytes: every byte a Write takes in is either collected
// by a flush or counted as superseded. A holder that handed its write
// lock on with the flush deferred can win the lock back and overwrite
// its own block before that flush collects it; the old block is then
// never flushed, and only SupersededBytes accounts for it.
func TestSupersededBytes(t *testing.T) {
	c := New(Config{PageSize: 4096})
	const n = 32 << 10
	c.Write(1, 0, fill(n, 1), 1) // under the lock handed on
	c.Write(1, 0, fill(n, 3), 3) // under the lock won back
	if blocks := c.CollectDirty(1, extent.New(0, extent.Inf), 1); len(blocks) != 0 {
		t.Fatalf("the deferred SN-1 flush collected %+v; the SN-3 write replaced it", blocks)
	}
	var flushed int64
	for _, b := range c.CollectDirty(1, extent.New(0, extent.Inf), 3) {
		flushed += b.Range.Len()
	}
	c.Write(1, 4096, fill(4096, 2), 2) // stale: loses to the cached SN-3 bytes
	c.Fill(1, n, fill(4096, 9), 5)     // a fill is not a write
	if got := c.SupersededBytes(); got != n+4096 {
		t.Fatalf("superseded = %d, want %d", got, n+4096)
	}
	if written := int64(2*n + 4096); flushed+c.SupersededBytes() != written {
		t.Fatalf("flushed %d + superseded %d != written %d", flushed, c.SupersededBytes(), written)
	}
}

func TestCollectDirtyMergesAdjacentSameSN(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 0, fill(4096, 1), 5)
	c.Write(1, 4096, fill(4096, 2), 5)
	blocks := c.CollectDirty(1, extent.New(0, extent.Inf), 5)
	if len(blocks) != 1 || blocks[0].Range != extent.New(0, 8192) {
		t.Fatalf("blocks = %+v, want one merged block", blocks)
	}
	if len(blocks[0].Data) != 8192 {
		t.Fatalf("merged data length = %d", len(blocks[0].Data))
	}
}

func TestRedirty(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 0, fill(1024, 7), 3)
	blocks := c.CollectDirty(1, extent.New(0, extent.Inf), 3)
	if c.DirtyBytes() != 0 {
		t.Fatal("dirty not drained")
	}
	c.Redirty(1, blocks)
	if c.DirtyBytes() != 1024 {
		t.Fatalf("dirty = %d after redirty, want 1024", c.DirtyBytes())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 0, fill(8192, 7), 3)
	c.Invalidate(1, extent.New(0, 4096))
	if c.Covered(1, 0, 4096) {
		t.Fatal("invalidated range still covered")
	}
	if !c.Covered(1, 4096, 4096) {
		t.Fatal("non-invalidated range lost")
	}
	if c.DirtyBytes() != 4096 {
		t.Fatalf("dirty = %d, want 4096", c.DirtyBytes())
	}
}

func TestFillIsClean(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Fill(1, 0, fill(4096, 9), 2)
	if c.DirtyBytes() != 0 {
		t.Fatal("Fill marked data dirty")
	}
	if !c.Covered(1, 0, 4096) {
		t.Fatal("filled data not cached")
	}
}

func TestDirtyStripes(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 0, fill(10, 1), 1)
	c.Write(5, 0, fill(10, 1), 1)
	c.Fill(9, 0, fill(10, 1), 1)
	got := map[uint64]bool{}
	for _, s := range c.DirtyStripes() {
		got[s] = true
	}
	if !got[1] || !got[5] || got[9] {
		t.Fatalf("DirtyStripes = %v", got)
	}
}

func TestMaxDirtyBackpressure(t *testing.T) {
	c := New(Config{PageSize: 4096, MaxDirty: 8192})
	c.Write(1, 0, fill(8192, 1), 1)
	// The next write must block until dirty data is collected.
	wrote := make(chan struct{})
	go func() {
		c.Write(1, 8192, fill(4096, 2), 2)
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write above MaxDirty did not block")
	case <-time.After(100 * time.Millisecond):
	}
	c.CollectDirty(1, extent.New(0, extent.Inf), 2)
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("write never unblocked after flush")
	}
}

func TestNeedsFlushThreshold(t *testing.T) {
	c := New(Config{PageSize: 4096, MinDirty: 4096})
	if c.NeedsFlush() {
		t.Fatal("empty cache wants flush")
	}
	c.Write(1, 0, fill(4096, 1), 1)
	if !c.NeedsFlush() {
		t.Fatal("threshold crossing not detected")
	}
	cNo := New(Config{})
	cNo.Write(1, 0, fill(1<<16, 1), 1)
	if cNo.NeedsFlush() {
		t.Fatal("MinDirty=0 must disable voluntary flushing")
	}
}

func TestPoolReclaimEvictsCleanOnly(t *testing.T) {
	c := New(Config{PageSize: 4096, PoolBytes: 2 * 4096})
	c.Write(1, 0, fill(4096, 1), 1) // dirty page
	c.Fill(1, 4096, fill(4096, 2), 1)
	c.Fill(1, 8192, fill(4096, 3), 1) // exceeds pool; clean page evicted
	if c.DirtyBytes() != 4096 {
		t.Fatal("dirty page evicted by reclaim")
	}
	if c.CachedBytes() > 2*4096 {
		t.Fatalf("cached = %d, want <= pool", c.CachedBytes())
	}
}

func TestReadPartialCoverage(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 1000, fill(100, 0xEE), 1)
	buf := make([]byte, 4096)
	got := c.Read(1, 0, buf)
	if len(got) != 1 || got[0] != extent.New(1000, 1100) {
		t.Fatalf("coverage = %v", got)
	}
	if buf[999] != 0 || buf[1000] != 0xEE || buf[1099] != 0xEE || buf[1100] != 0 {
		t.Fatal("partial read filled wrong bytes")
	}
}

func TestConcurrentWriters(t *testing.T) {
	c := New(Config{PageSize: 4096})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				off := int64((g*100 + i) * 512)
				c.Write(uint64(g%2), off, fill(512, byte(g)), extent.SN(i))
			}
		}(g)
	}
	wg.Wait()
	if c.DirtyBytes() == 0 {
		t.Fatal("no dirty data after concurrent writes")
	}
}

func TestEmptyWriteNoop(t *testing.T) {
	c := New(Config{})
	c.Write(1, 0, nil, 1)
	c.Fill(1, 0, nil, 1)
	if c.DirtyBytes() != 0 || c.CachedBytes() != 0 {
		t.Fatal("empty write changed state")
	}
}

func TestStringSummary(t *testing.T) {
	c := New(Config{PageSize: 4096})
	c.Write(1, 0, fill(10, 1), 1)
	if s := c.String(); s == "" {
		t.Fatal("empty summary")
	}
}

func BenchmarkWrite64K(b *testing.B) {
	c := New(Config{})
	data := fill(64<<10, 1)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Write(1, int64(i%256)*int64(len(data)), data, extent.SN(i))
	}
}

func BenchmarkCollectDirty(b *testing.B) {
	c := New(Config{})
	data := fill(4096, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Write(1, int64(i%1024)*4096, data, extent.SN(i))
		if i%1024 == 1023 {
			c.CollectDirty(1, extent.New(0, extent.Inf), extent.SN(i))
		}
	}
}

func BenchmarkReadCached(b *testing.B) {
	c := New(Config{})
	c.Write(1, 0, fill(1<<20, 7), 1)
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(1, int64(i%16)*int64(len(buf)), buf)
	}
}
