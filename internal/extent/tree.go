package extent

// Tree is a balanced (AVL) interval tree of non-overlapping SN-tagged
// extents, keyed by extent start. It implements the data server's extent
// cache from §IV-B of the paper: each entry records the newest sequence
// number seen for a byte range, overlapping inserts keep the larger SN,
// continuous extents with the same SN are merged, and inserts report the
// update set — the sub-ranges where the incoming write won and must be
// applied to the storage device.
//
// Entries are approximately 48 bytes each (the paper's figure); EntryBytes
// reports the modelled footprint.
//
// Tree is not safe for concurrent use, reads included; callers
// synchronize externally (extcache holds the stripe mutex). The zero
// value is an empty tree.
type Tree struct {
	root *node
	size int
	// free holds nodes deleted from the tree for the next insert to
	// reuse: an Insert deletes the entries it overlaps and re-inserts
	// the merged pieces, so in steady state it allocates no node.
	free []*node
}

// EntrySize is the modelled per-entry footprint in bytes (paper §IV-B:
// "each entry ... has a size of 48 bytes").
const EntrySize = 48

type node struct {
	ent         SNExtent
	left, right *node
	height      int
}

// newNode returns a zeroed node, from the free list when it has one.
func (t *Tree) newNode() *node {
	if i := len(t.free) - 1; i >= 0 {
		nd := t.free[i]
		t.free[i] = nil
		t.free = t.free[:i]
		return nd
	}
	return new(node)
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// EntryBytes returns the modelled memory footprint of the cache.
func (t *Tree) EntryBytes() int { return t.size * EntrySize }

// Clear removes all entries.
func (t *Tree) Clear() {
	t.root, t.size = nil, 0
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *node) *node {
	n.height = 1 + max(height(n.left), height(n.right))
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max(height(n.left), height(n.right))
	l.height = 1 + max(height(l.left), height(l.right))
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max(height(n.left), height(n.right))
	r.height = 1 + max(height(r.left), height(r.right))
	return r
}

func (t *Tree) insertRaw(ent SNExtent) {
	if ent.Empty() {
		return
	}
	t.root = t.insertNode(t.root, ent)
	t.size++
}

func (t *Tree) insertNode(n *node, ent SNExtent) *node {
	if n == nil {
		nn := t.newNode()
		nn.ent, nn.height = ent, 1
		return nn
	}
	if ent.Start < n.ent.Start {
		n.left = t.insertNode(n.left, ent)
	} else {
		n.right = t.insertNode(n.right, ent)
	}
	return fix(n)
}

func (t *Tree) deleteStart(start int64) bool {
	var deleted bool
	t.root, deleted = t.deleteNode(t.root, start)
	if deleted {
		t.size--
	}
	return deleted
}

func (t *Tree) deleteNode(n *node, start int64) (*node, bool) {
	if n == nil {
		return nil, false
	}
	deleted := true
	switch {
	case start < n.ent.Start:
		n.left, deleted = t.deleteNode(n.left, start)
	case start > n.ent.Start:
		n.right, deleted = t.deleteNode(n.right, start)
	case n.left == nil || n.right == nil:
		child := n.left
		if child == nil {
			child = n.right
		}
		*n = node{} // a parked node must not keep a dead subtree reachable
		t.free = append(t.free, n)
		return child, true
	default:
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.ent = succ.ent
		n.right, _ = t.deleteNode(n.right, succ.ent.Start)
	}
	if !deleted {
		return n, false
	}
	return fix(n), true
}

// Visit calls fn for every entry in ascending order. Returning false from
// fn stops the walk.
func (t *Tree) Visit(fn func(SNExtent) bool) {
	t.visitFrom(minInt64, fn)
}

// VisitFrom calls fn for every entry whose Start >= from, in ascending
// order. Returning false from fn stops the walk.
func (t *Tree) VisitFrom(from int64, fn func(SNExtent) bool) {
	t.visitFrom(from, fn)
}

const minInt64 = -1 << 63

func (t *Tree) visitFrom(from int64, fn func(SNExtent) bool) {
	// Iterative in-order traversal skipping subtrees entirely before from.
	var stack []*node
	n := t.root
	for n != nil || len(stack) > 0 {
		for n != nil {
			if n.ent.Start >= from {
				stack = append(stack, n)
				n = n.left
			} else {
				n = n.right
			}
		}
		if len(stack) == 0 {
			return
		}
		n = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(n.ent) {
			return
		}
		n = n.right
	}
}

// overlapping returns the entries overlapping e in ascending order.
func (t *Tree) overlapping(e Extent) []SNExtent {
	var out []SNExtent
	// An overlapping entry can start before e.Start (it must then end
	// after it). Find the rightmost entry starting at or before e.Start
	// first, then ascend.
	from := e.Start
	if p, ok := t.floorStart(e.Start); ok && p.End > e.Start {
		from = p.Start
	}
	t.visitFrom(from, func(ent SNExtent) bool {
		if ent.Start >= e.End {
			return false
		}
		if ent.Overlaps(e) {
			out = append(out, ent)
		}
		return true
	})
	return out
}

// floorStart returns the entry with the greatest Start <= start.
func (t *Tree) floorStart(start int64) (SNExtent, bool) {
	var best SNExtent
	found := false
	n := t.root
	for n != nil {
		if n.ent.Start <= start {
			best, found = n.ent, true
			n = n.right
		} else {
			n = n.left
		}
	}
	return best, found
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
		t.deleteStart(o.Start)
	}

	var pieces []SNExtent // replacement entries covering the affected span
	var won []SNExtent    // update set
	pend := SNExtent{Extent: e, SN: sn}
	consumed := false
	for _, old := range olds {
		if old.SN > sn {
			if !consumed && pend.Start < old.Start {
				seg := SNExtent{Extent: Extent{pend.Start, old.Start}, SN: sn}
				pieces = appendMerge(pieces, seg)
				won = appendMerge(won, seg)
			}
			pieces = appendMerge(pieces, old)
			if old.End >= pend.End {
				consumed = true
			} else if !consumed {
				pend.Start = old.End
			}
			continue
		}
		if old.Start < e.Start {
			pieces = appendMerge(pieces, SNExtent{Extent: Extent{old.Start, e.Start}, SN: old.SN})
		}
		if old.End > e.End {
			seg := SNExtent{Extent: Extent{pend.Start, e.End}, SN: sn}
			pieces = appendMerge(pieces, seg)
			won = appendMerge(won, seg)
			pieces = appendMerge(pieces, SNExtent{Extent: Extent{e.End, old.End}, SN: old.SN})
			consumed = true
		}
	}
	if !consumed && !pend.Empty() {
		pieces = appendMerge(pieces, pend)
		won = appendMerge(won, pend)
	}

	// Coalesce with untouched neighbors sharing an SN at the span edges.
	if len(pieces) > 0 {
		first := &pieces[0]
		if p, ok := t.floorStart(first.Start - 1); ok && p.End == first.Start && p.SN == first.SN {
			t.deleteStart(p.Start)
			first.Start = p.Start
		}
		last := &pieces[len(pieces)-1]
		if s, ok := t.ceilStart(last.End); ok && s.Start == last.End && s.SN == last.SN {
			t.deleteStart(s.Start)
			last.End = s.End
		}
	}
	for _, p := range pieces {
		t.insertRaw(p)
	}
	return won
}

// ceilStart returns the entry with the smallest Start >= start.
func (t *Tree) ceilStart(start int64) (SNExtent, bool) {
	var best SNExtent
	found := false
	n := t.root
	for n != nil {
		if n.ent.Start >= start {
			best, found = n.ent, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return best, found
}

// MaxSNOverlapping returns the largest SN among entries overlapping e,
// or (0, false) when nothing overlaps. It does not allocate: this is
// the data server's probe after every device read.
func (t *Tree) MaxSNOverlapping(e Extent) (SN, bool) {
	// Entries never overlap each other, so everything overlapping e
	// starts in [floor(e.Start), e.End): only the floor entry can start
	// before e.Start and still reach into e.
	from := e.Start
	if p, ok := t.floorStart(e.Start); ok && p.End > e.Start {
		from = p.Start
	}
	return maxSNIn(t.root, from, e.End, e.Start, 0, false)
}

// maxSNIn folds the max SN over entries with Start in [from, to) and
// End > minEnd, by in-order pruned traversal. Plain recursion with
// value accumulators: no closures, no stack slice, no allocation.
func maxSNIn(n *node, from, to, minEnd int64, best SN, found bool) (SN, bool) {
	for n != nil {
		if n.ent.Start < from {
			// Left subtree starts even earlier; everything relevant is
			// to the right.
			n = n.right
			continue
		}
		if n.ent.Start >= to {
			n = n.left
			continue
		}
		best, found = maxSNIn(n.left, from, to, minEnd, best, found)
		if n.ent.End > minEnd {
			if !found || n.ent.SN > best {
				best = n.ent.SN
			}
			found = true
		}
		n = n.right
	}
	return best, found
}

// Overlapping returns the entries overlapping e, clipped to e, in order.
func (t *Tree) Overlapping(e Extent) []SNExtent {
	ents := t.overlapping(e)
	out := ents[:0]
	for _, ent := range ents {
		if iv, ok := ent.Intersect(e); ok {
			out = append(out, SNExtent{Extent: iv, SN: ent.SN})
		}
	}
	return out
}

// PickBatch returns up to n entries whose Start >= from, together with
// the start cursor to resume from next time (one past the last returned
// entry). It is the scan primitive behind the cleanup task, which
// processes at most 1,024 entries per round.
func (t *Tree) PickBatch(from int64, n int) (batch []SNExtent, next int64) {
	next = from
	t.visitFrom(from, func(ent SNExtent) bool {
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
		if cur, ok := t.floorStart(ent.Start); ok && cur == ent {
			t.deleteStart(ent.Start)
			removed++
		}
	}
	return removed
}

// check verifies structural invariants (used by tests).
func (t *Tree) check() error {
	var prev *SNExtent
	var err error
	count := 0
	t.Visit(func(ent SNExtent) bool {
		count++
		if ent.Empty() {
			err = errEmptyEntry
			return false
		}
		if prev != nil && prev.End > ent.Start {
			err = errOverlapEntry
			return false
		}
		prev = &SNExtent{Extent: ent.Extent, SN: ent.SN}
		return true
	})
	if err == nil && count != t.size {
		err = errSizeMismatch
	}
	return err
}

type treeError string

func (e treeError) Error() string { return string(e) }

const (
	errEmptyEntry   = treeError("extent: empty entry in tree")
	errOverlapEntry = treeError("extent: overlapping entries in tree")
	errSizeMismatch = treeError("extent: size counter mismatch")
)
