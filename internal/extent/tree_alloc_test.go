package extent_test

import (
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// TestAllocBudgetMaxSN: the data server probes the cache after every
// device read, so the probe must not allocate.
func TestAllocBudgetMaxSN(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var tr extent.Tree
	for i := int64(0); i < 256; i++ {
		tr.Insert(extent.New(i*8, i*8+8), extent.SN(i+1))
	}
	if a := testing.AllocsPerRun(500, func() {
		tr.MaxSNOverlapping(extent.New(100, 900))
	}); a != 0 {
		t.Errorf("MaxSNOverlapping: %.1f allocs per run, want 0", a)
	}
}

// TestAllocBudgetTreeInsert: the extent cache's insert, overwriting a
// warmed window of 64 × 32 KiB entries with ever newer SNs, reuses the
// nodes it deletes. What it allocates is three slices: the entries it
// overlaps, their replacements and the update set.
func TestAllocBudgetTreeInsert(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const window, block = 64, 32 << 10
	var tr extent.Tree
	for i := int64(0); i < window; i++ {
		tr.Insert(extent.Span(i*block, block), extent.SN(i+1))
	}
	i := int64(window)
	if a := testing.AllocsPerRun(500, func() {
		tr.Insert(extent.Span(i%window*block, block), extent.SN(i+1))
		i++
	}); a > 3 {
		t.Errorf("Tree.Insert: %.2f allocs per call, want <= 3", a)
	}
	if tr.Len() != window {
		t.Fatalf("tree holds %d entries, want %d", tr.Len(), window)
	}
}

// TestAllocBudgetITreeInsertDelete: a lock table grants and releases
// lock after lock; the node a Delete frees serves the next Insert, so
// the only allocation left is the value's own.
func TestAllocBudgetITreeInsertDelete(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var tr extent.ITree[*int]
	for i := 0; i < 64; i++ {
		v := i
		tr.Insert(extent.Span(int64(i)*4096, 4096), uint64(i), &v)
	}
	key := uint64(64)
	if a := testing.AllocsPerRun(500, func() {
		v := int(key)
		e := extent.Span(int64(key%64)*4096, 4096)
		tr.Insert(e, key, &v)
		tr.Delete(e.Start, key)
		key++
	}); a > 1 {
		t.Errorf("ITree insert+delete: %.2f allocs per call, want <= 1", a)
	}
}
