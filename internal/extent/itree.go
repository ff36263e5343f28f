package extent

// ITree is the package's one balanced (AVL) interval tree. It indexes a
// set of possibly-overlapping extents keyed by (Start, key), where key is
// a caller-supplied unique discriminator (a lock ID, a waiter sequence
// number). Every node is augmented with the maximum End in its subtree,
// so a stabbing query visits only the O(log n + k) nodes whose subtrees
// can overlap the probe. It is the index behind the DLM server's
// sublinear grant engine (DESIGN.md §9) — conflict detection,
// queue-conflict checks and mSN queries over a resource's granted set —
// and, with non-overlapping entries and a constant key, the storage of
// Tree.
//
// A deleted node is zeroed and parked for the next Insert to reuse, so a
// tree whose size holds steady (a lock table granting and releasing, an
// extent cache overwriting its window) allocates no node.
//
// ITree is not safe for concurrent use; callers synchronize externally.
type ITree[V any] struct {
	root *inode[V]
	size int
	free *inode[V] // parked nodes, linked through right
}

type inode[V any] struct {
	ext         Extent
	key         uint64
	val         V
	left, right *inode[V]
	height      int
	maxEnd      int64
}

// Len returns the number of entries.
func (t *ITree[V]) Len() int { return t.size }

func iheight[V any](n *inode[V]) int {
	if n == nil {
		return 0
	}
	return n.height
}

func imaxEnd[V any](n *inode[V]) int64 {
	if n == nil {
		return minInt64
	}
	return n.maxEnd
}

// less orders nodes by (Start, key); key uniqueness makes the order
// total, which is what lets equal-Start (and fully equal) extents
// coexist in one tree.
func (n *inode[V]) less(start int64, key uint64) bool {
	if n.ext.Start != start {
		return n.ext.Start < start
	}
	return n.key < key
}

// fix recomputes the node's augmentation and rebalances.
func (n *inode[V]) fix() *inode[V] {
	n.update()
	switch bf := iheight(n.left) - iheight(n.right); {
	case bf > 1:
		if iheight(n.left.left) < iheight(n.left.right) {
			n.left = n.left.rotateLeft()
		}
		return n.rotateRight()
	case bf < -1:
		if iheight(n.right.right) < iheight(n.right.left) {
			n.right = n.right.rotateRight()
		}
		return n.rotateLeft()
	}
	return n
}

func (n *inode[V]) update() {
	n.height = 1 + max(iheight(n.left), iheight(n.right))
	n.maxEnd = max(n.ext.End, max(imaxEnd(n.left), imaxEnd(n.right)))
}

func (n *inode[V]) rotateRight() *inode[V] {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func (n *inode[V]) rotateLeft() *inode[V] {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

// Insert adds (ext, key) → val. The caller guarantees key is unique
// among live entries; duplicate keys would make Delete ambiguous.
func (t *ITree[V]) Insert(ext Extent, key uint64, val V) {
	t.root = t.insert(t.root, ext, key, val)
	t.size++
}

func (t *ITree[V]) insert(n *inode[V], ext Extent, key uint64, val V) *inode[V] {
	if n == nil {
		n = t.free
		if n != nil {
			t.free = n.right
		} else {
			n = new(inode[V])
		}
		*n = inode[V]{ext: ext, key: key, val: val, height: 1, maxEnd: ext.End}
		return n
	}
	if n.less(ext.Start, key) {
		n.right = t.insert(n.right, ext, key, val)
	} else {
		n.left = t.insert(n.left, ext, key, val)
	}
	return n.fix()
}

// Delete removes the entry with the given Start and key, reporting
// whether it was present.
func (t *ITree[V]) Delete(start int64, key uint64) bool {
	var deleted bool
	t.root, deleted = t.delete(t.root, start, key)
	if deleted {
		t.size--
	}
	return deleted
}

func (t *ITree[V]) delete(n *inode[V], start int64, key uint64) (*inode[V], bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case n.less(start, key):
		n.right, deleted = t.delete(n.right, start, key)
	case n.ext.Start != start || n.key != key:
		n.left, deleted = t.delete(n.left, start, key)
	case n.left == nil || n.right == nil:
		child := n.left
		if child == nil {
			child = n.right
		}
		// A parked node must keep neither its value nor a dead subtree
		// reachable.
		*n = inode[V]{right: t.free}
		t.free = n
		return child, true
	default:
		deleted = true
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.ext, n.key, n.val = succ.ext, succ.key, succ.val
		n.right, _ = t.delete(n.right, succ.ext.Start, succ.key)
	}
	return n.fix(), deleted
}

// VisitOverlap calls fn for every entry whose extent overlaps e, in
// ascending (Start, key) order. Returning false stops the walk. The
// max-End augmentation prunes subtrees that end at or before e.Start,
// and the BST order prunes subtrees starting at or after e.End, so the
// visit is O(log n + k) for k reported entries.
func (t *ITree[V]) VisitOverlap(e Extent, fn func(Extent, uint64, V) bool) {
	if e.Empty() {
		return
	}
	t.root.visitOverlap(e, fn)
}

func (n *inode[V]) visitOverlap(e Extent, fn func(Extent, uint64, V) bool) bool {
	if n == nil || n.maxEnd <= e.Start {
		return true
	}
	if !n.left.visitOverlap(e, fn) {
		return false
	}
	if n.ext.Start >= e.End {
		// Everything in the right subtree starts even later; only the
		// left subtree (already visited) can overlap.
		return true
	}
	if n.ext.Overlaps(e) && !fn(n.ext, n.key, n.val) {
		return false
	}
	return n.right.visitOverlap(e, fn)
}

// Visit calls fn for every entry in ascending (Start, key) order.
// Returning false stops the walk.
func (t *ITree[V]) Visit(fn func(Extent, uint64, V) bool) {
	t.VisitFrom(minInt64, fn)
}

// VisitFrom calls fn for every entry whose Start >= from, in ascending
// (Start, key) order. Returning false stops the walk.
func (t *ITree[V]) VisitFrom(from int64, fn func(Extent, uint64, V) bool) {
	// An AVL tree of height 64 holds more than 10^13 entries, so the
	// walk's stack stays in buf.
	var buf [64]*inode[V]
	stack := buf[:0]
	n := t.root
	for n != nil || len(stack) > 0 {
		for n != nil {
			if n.ext.Start >= from {
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
		if !fn(n.ext, n.key, n.val) {
			return
		}
		n = n.right
	}
}
