package extent

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"
)

// itreeEntry mirrors a tree entry for the brute-force model.
type itreeEntry struct {
	ext Extent
	key uint64
}

// checkITree validates AVL balance and max-End augmentation.
func checkITree(t *testing.T, n *inode[int]) (h int, maxEnd int64) {
	t.Helper()
	if n == nil {
		return 0, minInt64
	}
	lh, lm := checkITree(t, n.left)
	rh, rm := checkITree(t, n.right)
	if bf := lh - rh; bf < -1 || bf > 1 {
		t.Fatalf("unbalanced node (bf=%d)", bf)
	}
	h = 1 + max(lh, rh)
	if n.height != h {
		t.Fatalf("height mismatch: %d != %d", n.height, h)
	}
	maxEnd = max(n.ext.End, max(lm, rm))
	if n.maxEnd != maxEnd {
		t.Fatalf("maxEnd mismatch: %d != %d", n.maxEnd, maxEnd)
	}
	if n.left != nil && !n.left.less(n.ext.Start, n.key) {
		// The left child itself may be fine, but its subtree maximum is
		// checked transitively by recursion; spot-check the child.
		t.Fatalf("order violation left")
	}
	return h, maxEnd
}

// TestITreeRandomized drives random inserts/deletes and compares every
// query against a brute-force slice model.
func TestITreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr ITree[int]
	model := map[uint64]itreeEntry{}
	nextKey := uint64(0)

	randExtent := func() Extent {
		start := int64(rng.Intn(200))
		length := int64(1 + rng.Intn(50))
		if rng.Intn(16) == 0 {
			return Extent{Start: start, End: Inf}
		}
		return Extent{Start: start, End: start + length}
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(model) == 0:
			e := randExtent()
			nextKey++
			tr.Insert(e, nextKey, int(nextKey))
			model[nextKey] = itreeEntry{ext: e, key: nextKey}
		default:
			// Delete a random live entry (plus occasionally a miss).
			if rng.Intn(8) == 0 {
				if tr.Delete(int64(rng.Intn(200)), nextKey+1000) {
					t.Fatal("deleted a key that was never inserted")
				}
				continue
			}
			var victim itreeEntry
			for _, v := range model {
				victim = v
				break
			}
			if !tr.Delete(victim.ext.Start, victim.key) {
				t.Fatalf("delete miss for live entry %+v", victim)
			}
			delete(model, victim.key)
		}

		if tr.Len() != len(model) {
			t.Fatalf("len %d != model %d", tr.Len(), len(model))
		}
		if step%50 == 0 {
			checkITree(t, tr.root)
		}

		// Overlap query vs brute force.
		probe := randExtent()
		got := map[uint64]bool{}
		prevStart, prevKey := int64(minInt64), uint64(0)
		tr.VisitOverlap(probe, func(e Extent, key uint64, v int) bool {
			if e.Start < prevStart || (e.Start == prevStart && key <= prevKey) {
				t.Fatalf("VisitOverlap out of order at (%d,%d)", e.Start, key)
			}
			prevStart, prevKey = e.Start, key
			got[key] = true
			return true
		})
		for key, ent := range model {
			if ent.ext.Overlaps(probe) != got[key] {
				t.Fatalf("overlap mismatch for %+v vs probe %v: got %v", ent, probe, got[key])
			}
		}

		// VisitFrom vs brute force.
		from := int64(rng.Intn(250))
		n := 0
		tr.VisitFrom(from, func(e Extent, key uint64, v int) bool {
			if e.Start < from {
				t.Fatalf("VisitFrom returned Start %d < from %d", e.Start, from)
			}
			n++
			return true
		})
		want := 0
		for _, ent := range model {
			if ent.ext.Start >= from {
				want++
			}
		}
		if n != want {
			t.Fatalf("VisitFrom count %d != %d", n, want)
		}
	}
}

// TestITreeVisitStops verifies early termination from the visitors.
func TestITreeVisitStops(t *testing.T) {
	var tr ITree[int]
	for i := 0; i < 100; i++ {
		tr.Insert(Extent{Start: int64(i), End: int64(i) + 10}, uint64(i), i)
	}
	calls := 0
	tr.VisitOverlap(Extent{Start: 0, End: 1000}, func(Extent, uint64, int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("VisitOverlap did not stop: %d calls", calls)
	}
	calls = 0
	tr.Visit(func(Extent, uint64, int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("Visit did not stop: %d calls", calls)
	}
}

// TestITreeParkedNodeDropsValue: a node Delete parks for reuse must not
// keep its value alive. The tree is shaped so that deleting the root (two
// children) moves the successor's value p into the root and parks the
// successor's node, and deleting p then parks the root's node: without
// the zeroing, both parked nodes still point at p, and the one Insert
// after them reuses only one.
func TestITreeParkedNodeDropsValue(t *testing.T) {
	type payload struct{ _ [64]byte }
	var tr ITree[*payload]
	wp := insertWeak(&tr, Extent{30, 31}, 3)
	tr.Insert(Extent{20, 21}, 2, new(payload))
	tr.Insert(Extent{10, 11}, 1, new(payload))
	if tr.root.key != 2 || tr.root.right == nil || tr.root.right.key != 3 {
		t.Fatalf("unexpected shape: root key %d", tr.root.key)
	}
	tr.Delete(20, 2) // two children: p moves into the root
	tr.Delete(30, 3) // p itself
	tr.Insert(Extent{40, 41}, 4, new(payload))
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a parked node keeps a deleted value reachable")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

// insertWeak inserts a fresh value and returns only a weak pointer to it,
// so the tree holds the one strong reference.
func insertWeak[T any](tr *ITree[*T], e Extent, key uint64) weak.Pointer[T] {
	p := new(T)
	tr.Insert(e, key, p)
	return weak.Make(p)
}
