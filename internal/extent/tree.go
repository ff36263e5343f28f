package extent

// Tree is the data server's extent cache from §IV-B of the paper: a set
// of non-overlapping SN-tagged extents, each recording the newest
// sequence number seen for a byte range. Inserts follow the merge rule
// Tree shares with List — the larger SN wins every byte, ties go to the
// incoming write — coalesce continuous extents with the same SN, and
// report the update set: the sub-ranges where the incoming write won and
// must be applied to the storage device.
//
// The entries live in an ITree. They never overlap, so their starts are
// unique and every entry carries the same key.
//
// Tree is not safe for concurrent use, reads included; callers
// synchronize externally (extcache holds the stripe mutex). The zero
// value is an empty tree.
type Tree struct {
	idx ITree[SN]
}

// EntrySize is the modelled per-entry footprint in bytes (paper §IV-B:
// "each entry ... has a size of 48 bytes").
const EntrySize = 48

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.idx.Len() }

// Clear removes all entries.
func (t *Tree) Clear() {
	t.idx.root, t.idx.size = nil, 0
}

// Visit calls fn for every entry in ascending order. Returning false from
// fn stops the walk.
func (t *Tree) Visit(fn func(SNExtent) bool) {
	t.VisitFrom(minInt64, fn)
}

// VisitFrom calls fn for every entry whose Start >= from, in ascending
// order. Returning false from fn stops the walk.
func (t *Tree) VisitFrom(from int64, fn func(SNExtent) bool) {
	t.idx.VisitFrom(from, func(e Extent, _ uint64, sn SN) bool {
		return fn(SNExtent{Extent: e, SN: sn})
	})
}

const minInt64 = -1 << 63

// overlapping returns the entries overlapping e in ascending order.
func (t *Tree) overlapping(e Extent) []SNExtent {
	var out []SNExtent
	t.idx.VisitOverlap(e, func(ext Extent, _ uint64, sn SN) bool {
		out = append(out, SNExtent{Extent: ext, SN: sn})
		return true
	})
	return out
}

// at returns the entry holding byte off.
func (t *Tree) at(off int64) (ent SNExtent, ok bool) {
	t.idx.VisitOverlap(Extent{off, off + 1}, func(ext Extent, _ uint64, sn SN) bool {
		ent, ok = SNExtent{Extent: ext, SN: sn}, true
		return false
	})
	return ent, ok
}

// Insert merges the write (e, sn) into the cache following the paper's
// rule: for overlapping parts the larger SN wins, with ties going to the
// incoming write. It returns the update set — the sub-ranges of e where
// the incoming data is newest and must be written to the device — merged
// and in ascending order. Sub-ranges of e that lost to newer cached data
// are absent from the update set and the caller discards those bytes.
func (t *Tree) Insert(e Extent, sn SN) []SNExtent {
	if e.Empty() {
		return nil
	}
	olds := t.overlapping(e)
	for _, o := range olds {
		t.idx.Delete(o.Start, 0)
	}
	// The pieces go into the index and are not kept, so they are built
	// in a stack buffer; only the update set is the caller's.
	var scratch [8]SNExtent
	pieces, won := mergeNewest(scratch[:0], nil, olds, e, sn, false)

	// Coalesce with untouched neighbors sharing an SN at the span edges.
	first := &pieces[0]
	if p, ok := t.at(first.Start - 1); ok && p.End == first.Start && p.SN == first.SN {
		t.idx.Delete(p.Start, 0)
		first.Start = p.Start
	}
	last := &pieces[len(pieces)-1]
	if s, ok := t.at(last.End); ok && s.Start == last.End && s.SN == last.SN {
		t.idx.Delete(s.Start, 0)
		last.End = s.End
	}
	for _, p := range pieces {
		t.idx.Insert(p.Extent, 0, p.SN)
	}
	return won
}

// MaxSNOverlapping returns the largest SN among entries overlapping e,
// or (0, false) when nothing overlaps. It does not allocate: this is
// the data server's probe after every device read. As with
// Extent.Overlaps, an empty e strictly inside an entry overlaps it.
func (t *Tree) MaxSNOverlapping(e Extent) (best SN, found bool) {
	t.idx.root.visitOverlap(e, func(_ Extent, _ uint64, sn SN) bool {
		best, found = max(best, sn), true
		return true
	})
	return best, found
}

// Overlapping returns the entries overlapping e, clipped to e, in order.
func (t *Tree) Overlapping(e Extent) []SNExtent {
	ents := t.overlapping(e)
	for i, ent := range ents {
		ents[i].Extent, _ = ent.Intersect(e)
	}
	return ents
}

// PickBatch returns up to n entries whose Start >= from, together with
// the start cursor to resume from next time (one past the last returned
// entry). It is the scan primitive behind the cleanup task, which
// processes at most 1,024 entries per round.
func (t *Tree) PickBatch(from int64, n int) (batch []SNExtent, next int64) {
	next = from
	t.VisitFrom(from, func(ent SNExtent) bool {
		if len(batch) >= n {
			return false
		}
		batch = append(batch, ent)
		next = ent.Start + 1
		return true
	})
	return batch, next
}

// RemoveLE deletes the given entries from the tree when their SN is no
// larger than msn and they are still present verbatim. It returns the
// number of entries removed. This is the cleanup rule of §IV-B: entries
// whose SN <= mSN (the minimum SN of unreleased write locks overlapping
// them) can never be superseded by in-flight data and are dropped.
func (t *Tree) RemoveLE(ents []SNExtent, msn SN) int {
	removed := 0
	for _, ent := range ents {
		if ent.SN > msn {
			continue
		}
		if cur, ok := t.at(ent.Start); ok && cur == ent {
			t.idx.Delete(ent.Start, 0)
			removed++
		}
	}
	return removed
}
