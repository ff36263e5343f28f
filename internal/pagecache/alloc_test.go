package pagecache

import (
	"bytes"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// TestAllocBudgetWriteCollect: rewriting 16 cached pages and collecting
// them for a flush allocates the block list and nothing per page — the
// lists are edited in place, the update sets live on the stack, the walk
// reads the stripe's slice in place — and the 64 KiB leave as one block in one
// buffer of that length.
func TestAllocBudgetWriteCollect(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 16 * DefaultPageSize
	c := New(Config{})
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	c.Write(1, n, data, 1) // cache the pages
	sn := extent.SN(1)
	var blocks []Block
	allocs := testing.AllocsPerRun(50, func() {
		sn++
		c.Write(1, n, data, sn)
		blocks = c.CollectDirty(1, extent.Span(n, n), sn)
		if len(blocks) == 1 {
			if !bytes.Equal(blocks[0].Data, data) {
				t.Fatal("collected bytes differ from the bytes written")
			}
			wire.PutBuf(blocks[0].Data) // what the flush path does once the block is encoded
		}
	})
	if allocs > 4 {
		t.Errorf("write of 16 cached pages + CollectDirty: %.1f allocs, want <= 4", allocs)
	}
	if len(blocks) != 1 || blocks[0].Range != extent.Span(n, n) || blocks[0].SN != sn || len(blocks[0].Data) != n {
		t.Fatalf("collected %d blocks, want one of %d bytes at SN %d", len(blocks), n, sn)
	}
	if got := c.DirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after collect = %d", got)
	}
}

// TestAllocBudgetWriteAbsentPages: a 64 KiB write into pages the cache
// has just invalidated takes its 16 pages back from the pool, headers
// and bytes together, and allocates nothing. From a cold pool the same
// write costs two allocations per page, the header and its bytes.
func TestAllocBudgetWriteAbsentPages(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 16 * DefaultPageSize
	c := New(Config{})
	data := make([]byte, n)
	c.Write(1, 0, data, 1) // the stripe and its slice exist
	sn := extent.SN(1)
	allocs := testing.AllocsPerRun(50, func() {
		c.Invalidate(1, extent.Span(0, n)) // every page goes back to the pool
		sn++
		c.Write(1, 0, data, sn)
	})
	if allocs > 0 {
		t.Errorf("64 KiB write into just-invalidated pages: %.1f allocs, want 0", allocs)
	}
	if got := c.DirtyBytes(); got != n {
		t.Fatalf("dirty bytes = %d, want %d", got, n)
	}

	// Cold: a page size no other test uses, and each run writes pages
	// the cache never held, so every page comes from a pool miss.
	const cps = 3 * 1024
	cold := New(Config{PageSize: cps})
	off := int64(0)
	allocs = testing.AllocsPerRun(50, func() {
		cold.Write(1, off, data[:16*cps], sn)
		off += 16 * cps
	})
	if allocs > 2*16+2 {
		t.Errorf("16-page write from a cold pool: %.1f allocs, want <= %d (two per page, plus the slice's growth)", allocs, 2*16+2)
	}
}
