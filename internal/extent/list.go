package extent

import "sort"

// List is a small, sorted, non-overlapping sequence of SN-tagged extents.
// It is the structure each client-cache page keeps to track which byte
// ranges of the page hold valid data and under which lock sequence number
// they were written (§IV-A of the paper). It is optimized for the handful
// of entries a 4 KB page accumulates, not for the data server's much
// larger per-stripe extent cache (see Tree for that): a page holds about
// eight entries, so a sorted slice beats a tree. It merges writes by the
// rule it shares with Tree (mergeNewest).
//
// The zero value is an empty, ready-to-use list.
type List struct {
	ents []SNExtent
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.ents) }

// Entries returns the entries in ascending Start order. The returned
// slice aliases internal storage and must not be mutated.
func (l *List) Entries() []SNExtent { return l.ents }

// Reset removes all entries, keeping the storage.
func (l *List) Reset() { l.ents = l.ents[:0] }

// SetStorage makes the list, which must be empty, build its entries in
// buf until they outgrow it. A page that embeds the first few entries of
// its lists in its own allocation saves one allocation per list.
func (l *List) SetStorage(buf []SNExtent) { l.ents = buf[:0] }

// Insert records that e was written under sequence number sn. Where e
// overlaps existing entries, the write with the larger sequence number
// wins; an incoming write with a sequence number equal to the existing
// entry also wins, because only the current lock holder can carry that SN
// and its operations are locally ordered. Insert returns the sub-extents
// of e that actually took effect (the update set), merged and in order.
func (l *List) Insert(e Extent, sn SN) []SNExtent {
	return l.InsertInto(nil, e, sn, false)
}

// InsertInto is Insert that builds the update set in won's storage (its
// contents are overwritten), so a caller inserting page after page can
// reuse one scratch slice. With oldWinsTies, existing entries with an
// equal SN win instead: that is the rule for clean fills from a data
// server — the locally cached copy of an equal-SN byte is at least as
// new as the server's, so a fill must never replace it. The list is
// edited in place: nothing is allocated unless the entries or the update
// set outgrow their storage.
func (l *List) InsertInto(won []SNExtent, e Extent, sn SN, oldWinsTies bool) []SNExtent {
	won = won[:0]
	if e.Empty() {
		return won
	}
	in := SNExtent{Extent: e, SN: sn}
	// The cases a page cache produces write after write, none of which
	// needs the list rebuilt: the first write to a page, a write just
	// past everything cached, and a write that replaces all of it.
	n := len(l.ents)
	if n == 0 || l.ents[n-1].End <= e.Start {
		l.ents = appendMerge(l.ents, in)
		return appendMerge(won, in)
	}
	if e.Start <= l.ents[0].Start && l.ents[n-1].End <= e.End {
		covers := true
		for _, old := range l.ents {
			if oldWins(old.SN, sn, oldWinsTies) {
				covers = false
				break
			}
		}
		if covers {
			l.ents = append(l.ents[:0], in)
			return appendMerge(won, in)
		}
	}

	// General case: rebuild the entries in a scratch that stays on the
	// stack for the handful a page holds, then copy them back. Entries
	// [lo, hi) overlap e.
	lo := 0
	for lo < n && l.ents[lo].End <= e.Start {
		lo++
	}
	hi := lo
	for hi < n && l.ents[hi].Start < e.End {
		hi++
	}
	var scratch [8]SNExtent
	out := append(scratch[:0], l.ents[:lo]...)
	out, won = mergeNewest(out, won, l.ents[lo:hi], e, sn, oldWinsTies)
	for _, old := range l.ents[hi:] {
		out = appendMerge(out, old)
	}
	l.ents = append(l.ents[:0], out...)
	return won
}

// oldWins reports whether an existing entry tagged old keeps its bytes
// against an incoming write tagged sn.
func oldWins(old, sn SN, oldWinsTies bool) bool {
	return old > sn || oldWinsTies && old == sn
}

// mergeNewest is the merge rule List and Tree share. It merges the write
// (e, sn) with olds — the entries overlapping e, in ascending order —
// and appends to out the entries replacing them, which cover the union
// of e and olds, and to won the update set. Both are built with
// appendMerge, so each coalesces with what it already ends in.
func mergeNewest(out, won, olds []SNExtent, e Extent, sn SN, oldWinsTies bool) ([]SNExtent, []SNExtent) {
	pend := SNExtent{Extent: e, SN: sn} // the part of e still to place
	for _, old := range olds {
		if oldWins(old.SN, sn, oldWinsTies) {
			// The existing data is newer: the incoming write only takes
			// effect outside this entry.
			if pend.Start < old.Start {
				seg := SNExtent{Extent: Extent{pend.Start, old.Start}, SN: sn}
				out, won = appendMerge(out, seg), appendMerge(won, seg)
			}
			out = appendMerge(out, old)
			pend.Start = old.End // pend is empty once old reaches e.End
			continue
		}
		// The incoming write is at least as new: keep the parts of the
		// old entry outside e, and let the incoming range flow through.
		if old.Start < e.Start {
			out = appendMerge(out, SNExtent{Extent: Extent{old.Start, e.Start}, SN: old.SN})
		}
		if old.End > e.End {
			// Emit the incoming remainder first to keep order.
			out, won = appendMerge(out, pend), appendMerge(won, pend)
			out = appendMerge(out, SNExtent{Extent: Extent{e.End, old.End}, SN: old.SN})
			pend.Start = e.End
		}
	}
	return appendMerge(out, pend), appendMerge(won, pend)
}

// appendMerge appends seg to out, coalescing with the previous entry when
// they are adjacent and carry the same SN. Entries must arrive in order.
// (Update-set segments all carry the incoming SN, so adjacent ones merge
// regardless of the interior splits that produced them.)
func appendMerge(out []SNExtent, seg SNExtent) []SNExtent {
	if seg.Empty() {
		return out
	}
	if n := len(out); n > 0 {
		last := &out[n-1]
		if last.SN == seg.SN && last.End == seg.Start {
			last.End = seg.End
			return out
		}
	}
	return append(out, seg)
}

// Covered reports whether every byte of e is present in the list.
func (l *List) Covered(e Extent) bool {
	if e.Empty() {
		return true
	}
	need := e.Start
	for _, ent := range l.ents {
		if ent.End <= need {
			continue
		}
		if ent.Start > need {
			return false
		}
		need = ent.End
		if need >= e.End {
			return true
		}
	}
	return false
}

// Overlapping returns the entries that overlap e, clipped to e.
func (l *List) Overlapping(e Extent) []SNExtent { return l.OverlappingInto(nil, e) }

// OverlappingInto is Overlapping that builds its result in dst's
// storage (its contents are overwritten).
func (l *List) OverlappingInto(dst []SNExtent, e Extent) []SNExtent {
	dst = dst[:0]
	for _, ent := range l.ents {
		if iv, ok := ent.Intersect(e); ok {
			dst = append(dst, SNExtent{Extent: iv, SN: ent.SN})
		}
		if ent.Start >= e.End {
			break
		}
	}
	return dst
}

// Remove deletes coverage of e from the list, splitting entries that
// straddle its boundaries.
func (l *List) Remove(e Extent) { l.RemoveLE(e, ^SN(0)) }

// RemoveLE deletes coverage of e restricted to entries whose SN is at
// most max, splitting straddlers. Entries with newer SNs keep their
// data — the rule that makes canceling one lock safe while a newer lock
// of the same client still protects overlapping bytes. The list is
// edited in place.
func (l *List) RemoveLE(e Extent, max SN) {
	if e.Empty() {
		return
	}
	ents := l.ents
	w := 0
	for r, ent := range ents {
		if !ent.Overlaps(e) || ent.SN > max {
			ents[w] = ent
			w++
			continue
		}
		left, right := ent.Start < e.Start, ent.End > e.End
		if left && right {
			// ent strictly contains e, so it is the only entry that
			// overlaps e: nothing was dropped before it (w == r) and
			// nothing after it changes. Split it in two where it stands.
			ents = append(ents, SNExtent{})
			copy(ents[r+2:], ents[r+1:])
			ents[r] = SNExtent{Extent: Extent{ent.Start, e.Start}, SN: ent.SN}
			ents[r+1] = SNExtent{Extent: Extent{e.End, ent.End}, SN: ent.SN}
			l.ents = ents
			return
		}
		if left {
			ents[w] = SNExtent{Extent: Extent{ent.Start, e.Start}, SN: ent.SN}
			w++
		} else if right {
			ents[w] = SNExtent{Extent: Extent{e.End, ent.End}, SN: ent.SN}
			w++
		}
	}
	l.ents = ents[:w]
}

// MaxSN returns the largest SN present in the list and true, or 0 and
// false when the list is empty.
func (l *List) MaxSN() (SN, bool) {
	if len(l.ents) == 0 {
		return 0, false
	}
	var m SN
	for _, ent := range l.ents {
		if ent.SN > m {
			m = ent.SN
		}
	}
	return m, true
}

// Set is an ordered collection of plain extents used for non-contiguous
// lock ranges in the DLM-datatype baseline (Ching et al.'s datatype
// locking describes a lock's range as a list of extents instead of one
// expanded interval).
type Set []Extent

// NewSet returns a normalized set: sorted, with overlapping or adjacent
// extents merged.
func NewSet(exts ...Extent) Set {
	s := make(Set, 0, len(exts))
	for _, e := range exts {
		if !e.Empty() {
			s = append(s, e)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	out := s[:0]
	for _, e := range s {
		if n := len(out); n > 0 && out[n-1].End >= e.Start {
			if e.End > out[n-1].End {
				out[n-1].End = e.End
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// Overlaps reports whether any extent of s overlaps any extent of other.
// Both sets must be normalized (sorted, non-overlapping).
func (s Set) Overlaps(other Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		if s[i].Overlaps(other[j]) {
			return true
		}
		if s[i].End <= other[j].Start {
			i++
		} else {
			j++
		}
	}
	return false
}

// OverlapsExtent reports whether any extent of s overlaps e.
func (s Set) OverlapsExtent(e Extent) bool {
	for _, x := range s {
		if x.Overlaps(e) {
			return true
		}
		if x.Start >= e.End {
			break
		}
	}
	return false
}

// Bounds returns the smallest single extent covering the whole set.
func (s Set) Bounds() (Extent, bool) {
	if len(s) == 0 {
		return Extent{}, false
	}
	return Extent{Start: s[0].Start, End: s[len(s)-1].End}, true
}
