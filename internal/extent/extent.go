// Package extent provides byte-range extents and the interval structures
// built on them in ccPFS: one balanced interval tree and two containers
// of SN-tagged extents that share one merge rule.
//
//   - ITree, an AVL interval tree of possibly-overlapping extents, indexes
//     the lock manager's granted locks and waiters, and stores Tree.
//   - List (a client page's valid extents, §IV-A) and Tree (the data
//     server's extent cache, §IV-B) keep the newest SN per byte: where a
//     write overlaps an entry, the larger SN wins. Both merge through one
//     function, mergeNewest, which also reports the update set. List is a
//     sorted slice, because a page holds about eight entries; Tree is
//     ITree with non-overlapping entries.
//
// All extents are half-open intervals [Start, End) over int64 byte
// offsets. The sentinel Inf represents "end of file" for lock ranges that
// have been expanded to EOF (the paper expands only the end of a lock
// range, following the Lustre convention).
package extent

import (
	"fmt"
	"math"
)

// Inf is the +infinity end sentinel used for lock ranges expanded to EOF.
const Inf int64 = math.MaxInt64

// Extent is a half-open byte range [Start, End).
type Extent struct {
	Start int64
	End   int64
}

// New returns the extent [start, end). It panics if end < start, which is
// always a programming error in this codebase.
func New(start, end int64) Extent {
	if end < start {
		panic(fmt.Sprintf("extent: invalid range [%d, %d)", start, end))
	}
	return Extent{Start: start, End: end}
}

// Span returns the extent starting at off with length n.
func Span(off, n int64) Extent { return New(off, off+n) }

// Len returns the length of the extent. An extent ending at Inf has
// effectively unbounded length; Len saturates instead of overflowing.
func (e Extent) Len() int64 {
	if e.End == Inf {
		return Inf - e.Start
	}
	return e.End - e.Start
}

// Empty reports whether the extent covers no bytes.
func (e Extent) Empty() bool { return e.End <= e.Start }

// Contains reports whether other lies entirely within e.
func (e Extent) Contains(other Extent) bool {
	return e.Start <= other.Start && other.End <= e.End
}

// ContainsOff reports whether the byte offset off lies within e.
func (e Extent) ContainsOff(off int64) bool {
	return e.Start <= off && off < e.End
}

// Overlaps reports whether e and other share at least one byte.
func (e Extent) Overlaps(other Extent) bool {
	return e.Start < other.End && other.Start < e.End
}

// Intersect returns the overlap of e and other. The boolean is false when
// they do not overlap, in which case the returned extent is empty.
func (e Extent) Intersect(other Extent) (Extent, bool) {
	start := max(e.Start, other.Start)
	end := min(e.End, other.End)
	if end <= start {
		return Extent{}, false
	}
	return Extent{Start: start, End: end}, true
}

// Union returns the smallest extent covering both e and other. It is only
// meaningful when the two overlap or are adjacent.
func (e Extent) Union(other Extent) Extent {
	return Extent{Start: min(e.Start, other.Start), End: max(e.End, other.End)}
}

// Sub returns the parts of e not covered by other: up to two extents
// (left and right remainders). Empty remainders are omitted.
func (e Extent) Sub(other Extent) []Extent {
	if !e.Overlaps(other) {
		return []Extent{e}
	}
	var out []Extent
	if e.Start < other.Start {
		out = append(out, Extent{Start: e.Start, End: other.Start})
	}
	if other.End < e.End {
		out = append(out, Extent{Start: other.End, End: e.End})
	}
	return out
}

func (e Extent) String() string {
	if e.End == Inf {
		return fmt.Sprintf("[%d, EOF)", e.Start)
	}
	return fmt.Sprintf("[%d, %d)", e.Start, e.End)
}

// SN is a lock-resource sequence number. Zero is a valid (first) sequence
// number; ordering is plain integer ordering and never wraps in practice.
type SN = uint64

// SNExtent is an extent tagged with the sequence number of the write lock
// under which its data was produced.
type SNExtent struct {
	Extent
	SN SN
}

func (s SNExtent) String() string {
	return fmt.Sprintf("%v@%d", s.Extent, s.SN)
}

// AlignDown rounds off down to a multiple of align.
func AlignDown(off, align int64) int64 { return off - off%align }

// AlignUp rounds off up to a multiple of align, saturating at Inf.
func AlignUp(off, align int64) int64 {
	if off > Inf-align {
		return Inf
	}
	if r := off % align; r != 0 {
		return off + align - r
	}
	return off
}
