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
