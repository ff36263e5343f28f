package dlm

import "ccpfs/internal/extent"

// lockTable holds one resource's granted set, indexed three ways
// (DESIGN.md §9):
//
//   - byID: LockID → *lock, so find/Release/RevokeAck/Downgrade are
//     O(1) instead of scanning a slice;
//   - tree: an interval tree over each lock's (expanded) range, so
//     conflict detection, mSN queries, and expansion probes touch only
//     the locks whose ranges can overlap the request — O(log n + k);
//   - list: a plain slice for full walks (invariant checks, slot
//     export).
//
// A lock's range is immutable once granted (conversion replaces the
// lock rather than growing it), so the tree key never goes stale. Locks
// carrying a non-contiguous extent set are indexed by their bounding
// range — a strict superset of the set, which Request validation
// enforces — and callers refine tree hits with the lock's precise
// overlap test (overlapsReq/overlapsExtent).
type lockTable struct {
	list []*lock
	byID map[LockID]*lock
	tree extent.ITree[*lock]
}

func (t *lockTable) len() int { return len(t.list) }

func (t *lockTable) get(id LockID) *lock {
	return t.byID[id]
}

func (t *lockTable) insert(l *lock) {
	if t.byID == nil {
		t.byID = make(map[LockID]*lock)
	}
	l.tblIdx = len(t.list)
	t.list = append(t.list, l)
	t.byID[l.id] = l
	t.tree.Insert(l.rng, uint64(l.id), l)
}

// remove drops l from every index. The slice uses swap-remove, so list
// order is arbitrary — nothing in the engine depends on grant order of
// the granted set, only the queue is ordered.
func (t *lockTable) remove(l *lock) {
	last := len(t.list) - 1
	if i := l.tblIdx; i != last {
		moved := t.list[last]
		t.list[i] = moved
		moved.tblIdx = i
	}
	t.list[last] = nil
	t.list = t.list[:last]
	delete(t.byID, l.id)
	t.tree.Delete(l.rng.Start, uint64(l.id))
}

// visitCandidates calls fn for every granted lock whose bounding range
// overlaps e; the caller still applies its precise overlap predicate.
// Returning false stops the walk.
func (t *lockTable) visitCandidates(e extent.Extent, fn func(*lock) bool) {
	t.tree.VisitOverlap(e, func(_ extent.Extent, _ uint64, l *lock) bool {
		return fn(l)
	})
}
