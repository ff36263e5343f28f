package dlm

import (
	"cmp"
	"slices"

	"ccpfs/internal/extent"
)

// spec is an executable reference of the grant rules, written from the
// paper rather than from the engine. It shares the engine's vocabulary —
// Mode, Policy, ClientID — but none of its code: it never calls
// Compatible, Upgrade, Downgrade, Mode.Covers, conflicts, blockedSet,
// expandEnd or queueConflict. It models one resource of specBlocks
// blocks with plain slices walked block by block, and implements:
//
//   - Table II compatibility, where a write request meets a
//     non-blocking write lock early only once that lock is CANCELING
//     (early grant, §III-A1);
//   - FIFO fairness: no waiter overtakes an earlier blocked waiter it
//     conflicts with;
//   - lock upgrading over the union of the request and every lock it
//     absorbs (§III-D1), and the downgrade routes (§III-D2);
//   - greedy range expansion toward EOF, up to the first block where a
//     granted lock or a queued request would become a new conflict, or
//     where a write lock would meet another client's CANCELING write
//     lock;
//   - early revocation only when the range could not expand and either
//     the queue shows a conflict (§III-A2) or the write grant is an
//     early grant over another client's CANCELING write lock;
//   - one SN per grant, in grant order, bumped by every write grant.
//
// Deliberately out of scope: delegation (handoff, broadcast, gather),
// the DLM-Lustre expansion cap and datatype extent sets.
type spec struct {
	policy Policy
	locks  []specLock // kept in cmpLock order
	queue  []specWaiter
	nextSN extent.SN
	nextID uint64
}

// The model resource is specBlocks blocks that requests name, then the
// rest of the file up to EOF as one more block: a lock expanded to EOF
// ends at specEOF.
const (
	specBlocks = 4
	specEOF    = specBlocks + 1
)

// tableII is Table II of the paper: tableII[req][held-PR] tells whether
// a request of mode req may be granted beside a held lock of mode held —
// 'Y' yes, 'N' no, 'E' only once the held lock is CANCELING. Its PR and
// PW rows and columns are the traditional read/write matrix of the
// baselines.
var tableII = [PW + 1]string{
	//   PR NBW BW PW
	PR:  "YNNN",
	NBW: "NENN",
	BW:  "NENN",
	PW:  "NNNN",
}

// above is Fig. 9's severity lattice: each mode's next more restrictive
// mode.
var above = [PW + 1]Mode{PR: PW, NBW: BW, BW: PW}

// specLock is one granted lock.
type specLock struct {
	client    ClientID
	mode      Mode
	lo, hi    int // blocks [lo, hi)
	canceling bool
	sn        extent.SN
	revoked   bool // its revocation was sent, or it was granted pre-revoked
}

// specWaiter is one queued request; id numbers requests in arrival
// order.
type specWaiter struct {
	client ClientID
	mode   Mode
	lo, hi int
	id     uint64
}

// specGrant is one grant decided by a step: the request served, the
// lock it got and how many of its client's locks that lock absorbed.
type specGrant struct {
	waiter   uint64
	lock     specLock
	absorbed int
}

// specResult is what one step decided: its grants in order, and the
// locks it sent revocations to, as they were when revoked.
type specResult struct {
	grants  []specGrant
	revoked []specLock
	refused bool
}

func (sp *spec) clone() *spec {
	c := *sp
	c.locks = slices.Clone(sp.locks)
	c.queue = slices.Clone(sp.queue)
	return &c
}

// Events. Locks are named by their position in cmpLock order and
// waiters by their position in the queue.

func (sp *spec) enqueue(client ClientID, mode Mode, lo, hi int) specResult {
	sp.queue = append(sp.queue, specWaiter{client: client, mode: mode, lo: lo, hi: hi, id: sp.nextID})
	sp.nextID++
	return sp.scan()
}

func (sp *spec) withdraw(i int) specResult {
	sp.queue = slices.Delete(sp.queue, i, i+1)
	return sp.scan()
}

func (sp *spec) release(i int) specResult {
	sp.locks = slices.Delete(sp.locks, i, i+1)
	return sp.scan()
}

func (sp *spec) revokeAck(i int) specResult {
	sp.locks[i].canceling = true
	return sp.scan()
}

// downgrade converts a lock at cancel time: BW to NBW, PW to NBW after
// writing under it or to PR after only reading.
func (sp *spec) downgrade(i int, to Mode) specResult {
	if from := sp.locks[i].mode; !(from == BW && to == NBW) && !(from == PW && (to == NBW || to == PR)) || sp.policy.MapMode(to) != to {
		return specResult{refused: true}
	}
	sp.locks[i].mode = to
	return sp.scan()
}

// ok reports whether a request of mode req may be granted beside a held
// lock of mode held, CANCELING or not.
func (sp *spec) ok(req, held Mode, canceling bool) bool {
	switch tableII[req][held-PR] {
	case 'Y':
		return true
	case 'E':
		return canceling && sp.policy.EarlyGrant
	}
	return false
}

func overlap(alo, ahi, blo, bhi int) bool { return alo < bhi && blo < ahi }

func writes(m Mode) bool { return m != PR }

// upgrade is the least mode at or above both a and b in the lattice.
func upgrade(a, b Mode) Mode {
	for x := a; x != ModeNone; x = above[x] {
		for y := b; y != ModeNone; y = above[y] {
			if x == y {
				return x
			}
		}
	}
	return ModeNone
}

// scan passes over the queue in arrival order, granting every waiter it
// can, until a pass grants nothing.
func (sp *spec) scan() specResult {
	var out specResult
	for granted := true; granted; {
		granted = false
		var blocked []specWaiter
		for i := 0; i < len(sp.queue); {
			w := sp.queue[i]
			if sp.behind(blocked, w) || !sp.tryGrant(i, &out) {
				blocked = append(blocked, w)
				i++
				continue
			}
			granted = true // tryGrant took w out of the queue
		}
	}
	slices.SortFunc(sp.locks, cmpLock)
	return out
}

// behind reports whether w conflicts with a waiter blocked before it:
// both must be able to hold their ranges side by side.
func (sp *spec) behind(blocked []specWaiter, w specWaiter) bool {
	for _, b := range blocked {
		if overlap(b.lo, b.hi, w.lo, w.hi) && !(sp.ok(w.mode, b.mode, false) && sp.ok(b.mode, w.mode, false)) {
			return true
		}
	}
	return false
}

// tryGrant grants queue[i] if nothing conflicts with it, after any
// upgrade, and otherwise revokes what blocks it.
func (sp *spec) tryGrant(i int, out *specResult) bool {
	w := sp.queue[i]
	mode, lo, hi := w.mode, w.lo, w.hi
	absorbed := make([]bool, len(sp.locks))
	n := 0
	// A conflict with one of the requester's own GRANTED locks upgrades
	// the request instead: it absorbs the lock, takes the least mode
	// covering both and the union of their ranges, and absorbs again
	// until nothing of its own in the union conflicts.
	for grew := sp.policy.Conversion; grew; {
		grew = false
		for j, l := range sp.locks {
			if !absorbed[j] && l.client == w.client && !l.canceling && overlap(l.lo, l.hi, lo, hi) && !sp.ok(mode, l.mode, false) {
				absorbed[j], grew = true, true
				n++
				mode, lo, hi = upgrade(mode, l.mode), min(lo, l.lo), max(hi, l.hi)
			}
		}
	}
	blocked := false
	for j := range sp.locks {
		if l := &sp.locks[j]; !absorbed[j] && overlap(l.lo, l.hi, lo, hi) && !sp.ok(mode, l.mode, l.canceling) {
			blocked = true
			if !l.canceling && !l.revoked {
				l.revoked = true
				out.revoked = append(out.revoked, *l)
			}
		}
	}
	if blocked {
		return false
	}

	end := hi
	for sp.policy.Expand == ExpandGreedy && end < specEOF && !sp.newConflictAt(w, mode, lo, hi, end) {
		end++
	}
	// Early revocation: the range could not expand, and either a queued
	// request conflicts with the lock or the grant is an early one over
	// another client's CANCELING write lock on the requested blocks.
	early := false
	for _, q := range sp.queue {
		if sp.policy.EarlyRevocation && end == hi && q.id != w.id && overlap(q.lo, q.hi, lo, hi) && !sp.ok(q.mode, mode, false) {
			early = true
		}
	}
	for _, l := range sp.locks {
		if sp.policy.EarlyRevocation && end == hi && writes(mode) && l.client != w.client && l.canceling && writes(l.mode) && overlap(l.lo, l.hi, w.lo, w.hi) {
			early = true
		}
	}
	l := specLock{client: w.client, mode: mode, lo: lo, hi: end, canceling: early, sn: sp.nextSN, revoked: early}
	if writes(mode) {
		sp.nextSN++
	}
	kept := sp.locks[:0]
	for j, o := range sp.locks {
		if !absorbed[j] {
			kept = append(kept, o)
		}
	}
	sp.locks = append(kept, l)
	sp.queue = slices.Delete(sp.queue, i, i+1)
	out.grants = append(out.grants, specGrant{waiter: w.id, lock: l, absorbed: n})
	return true
}

// newConflictAt reports whether growing a lock of mode m over [lo, hi)
// into block b would make it overlap a granted lock or another queued
// request it does not overlap yet and is incompatible with. A write
// lock does not grow over another client's CANCELING write lock either:
// early grant admits only the requested blocks beside it.
func (sp *spec) newConflictAt(w specWaiter, m Mode, lo, hi, b int) bool {
	for _, l := range sp.locks {
		if overlap(l.lo, l.hi, lo, hi) || !overlap(l.lo, l.hi, b, b+1) {
			continue
		}
		if !sp.ok(m, l.mode, l.canceling) || writes(m) && l.client != w.client && l.canceling && writes(l.mode) {
			return true
		}
	}
	for _, q := range sp.queue {
		if q.id != w.id && !overlap(q.lo, q.hi, lo, hi) && overlap(q.lo, q.hi, b, b+1) && !sp.ok(q.mode, m, false) {
			return true
		}
	}
	return false
}

// cmpLock orders locks by every field, so two lock tables that hold the
// same locks list them alike.
func cmpLock(a, b specLock) int {
	return cmp.Or(
		cmp.Compare(a.client, b.client), cmp.Compare(a.mode, b.mode),
		cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi),
		cmpBool(a.canceling, b.canceling), cmp.Compare(a.sn, b.sn), cmpBool(a.revoked, b.revoked))
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}
