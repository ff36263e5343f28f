package dlm

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"ccpfs/internal/extent"
)

// The step checker drives the engine's step function and the spec side
// by side over event sequences on one resource and fails on the first
// step after which they disagree — on the granted set, the waiters
// granted, the locks revoked or the refusal of a downgrade — or after
// which the engine's own invariants or Stats do not hold. Delegation is
// off: the policies checked are SeqDLM and DLM-basic as the paper
// defines them.
//
// Events are enumerated from the spec's state, so a sequence is a byte
// string of choices, each an index into the events possible at that
// point: the BFS explores every such string up to a depth, and the fuzz
// target decodes arbitrary ones.

// specRanges is the request alphabet: overlapping and adjacent ranges
// over the 4 blocks, so that requests conflict, expansion stops at
// another lock or request, and an upgrade's union reaches past its
// request.
var specRanges = [][2]int{{0, 2}, {1, 3}, {2, 4}}

// chkEvent is one event of a checked sequence. idx names a lock (its
// position in cmpLock order) or a waiter (its queue position).
type chkEvent struct {
	kind   evKind
	client ClientID
	mode   Mode
	lo, hi int
	idx    int
}

// checker holds one engine and the alphabet of a checking run.
type checker struct {
	s       *Server
	policy  Policy
	clients int
	modes   []Mode
	perms   [][]ClientID
	// sound holds the lock tables (hashes of their views) that
	// CheckInvariants has passed: it reads nothing else, so a table seen
	// before need not be checked again.
	sound map[uint64]bool
}

func newChecker(policy Policy, clients int) *checker {
	c := &checker{s: NewServer(policy, NotifierFunc(func(context.Context, Revocation) {})), policy: policy, clients: clients,
		perms: permutations(clients), sound: map[uint64]bool{}}
	c.modes = []Mode{PR, NBW, BW, PW}
	if policy.Legacy {
		c.modes = []Mode{PR, PW}
	}
	return c
}

// events lists what may happen next: a client with no request queued
// asks for any mode over any range; a queued request is withdrawn; a
// lock is released; a revoked lock's revocation is acknowledged; a BW
// or PW lock is downgraded to NBW or PR (BW to PR is refused).
func (c *checker) events(sp *spec) []chkEvent {
	var evs []chkEvent
	for cl := ClientID(1); cl <= ClientID(c.clients); cl++ {
		if slices.ContainsFunc(sp.queue, func(w specWaiter) bool { return w.client == cl }) {
			continue
		}
		for _, m := range c.modes {
			for _, r := range specRanges {
				evs = append(evs, chkEvent{kind: evEnqueue, client: cl, mode: m, lo: r[0], hi: r[1]})
			}
		}
	}
	for i := range sp.queue {
		evs = append(evs, chkEvent{kind: evWithdraw, idx: i})
	}
	for i, l := range sp.locks {
		evs = append(evs, chkEvent{kind: evRelease, idx: i})
		if l.revoked && !l.canceling {
			evs = append(evs, chkEvent{kind: evRevokeAck, idx: i})
		}
		if l.mode == BW || l.mode == PW {
			evs = append(evs, chkEvent{kind: evDowngrade, idx: i, mode: NBW}, chkEvent{kind: evDowngrade, idx: i, mode: PR})
		}
	}
	return evs
}

// specStep applies ev to the spec.
func specStep(sp *spec, ev chkEvent) specResult {
	switch ev.kind {
	case evEnqueue:
		return sp.enqueue(ev.client, ev.mode, ev.lo, ev.hi)
	case evWithdraw:
		return sp.withdraw(ev.idx)
	case evRelease:
		return sp.release(ev.idx)
	case evRevokeAck:
		return sp.revokeAck(ev.idx)
	}
	return sp.downgrade(ev.idx, ev.mode)
}

// describe renders ev against the spec state it applies to.
func describe(sp *spec, ev chkEvent) string {
	lk := func() string {
		l := sp.locks[ev.idx]
		return fmt.Sprintf("c%d %v [%d,%d) sn%d", l.client, l.mode, l.lo, l.hi, l.sn)
	}
	switch ev.kind {
	case evEnqueue:
		return fmt.Sprintf("c%d asks %v [%d,%d)", ev.client, ev.mode, ev.lo, ev.hi)
	case evWithdraw:
		w := sp.queue[ev.idx]
		return fmt.Sprintf("c%d withdraws %v [%d,%d)", w.client, w.mode, w.lo, w.hi)
	case evRelease:
		return "release " + lk()
	case evRevokeAck:
		return "ack revoke of " + lk()
	}
	return fmt.Sprintf("downgrade %s to %v", lk(), ev.mode)
}

// blocks is e in the spec's blocks.
func blocks(e extent.Extent) (lo, hi int) {
	if e.End == extent.Inf {
		return int(e.Start), specEOF
	}
	return int(e.Start), int(e.End)
}

// view is an engine lock as the spec would write it.
func view(l *lock) specLock {
	lo, hi := blocks(l.rng)
	return specLock{client: l.client, mode: l.mode, lo: lo, hi: hi,
		canceling: l.state == Canceling, sn: l.sn, revoked: l.revokeSent}
}

// sortedLocks lists res's locks in cmpLock order, with their views.
func sortedLocks(res *resource) ([]*lock, []specLock) {
	ls := slices.Clone(res.granted.list)
	slices.SortFunc(ls, func(a, b *lock) int { return cmpLock(view(a), view(b)) })
	vs := make([]specLock, len(ls))
	for i, l := range ls {
		vs[i] = view(l)
	}
	return ls, vs
}

// liveQueue lists res's queued waiters in order.
func liveQueue(res *resource) []*waiter {
	var q []*waiter
	for _, w := range res.queue {
		if !w.done {
			q = append(q, w)
		}
	}
	return q
}

// cloneResource copies res's granted set and queue, so each branch of
// the exploration steps its own engine state. Delegation is off, so no
// lock links to another.
func cloneResource(res *resource) *resource {
	c := &resource{id: res.id, nextSN: res.nextSN, wseq: res.wseq, grants: res.grants}
	for _, l := range res.granted.list {
		cp := *l
		c.granted.insert(&cp)
	}
	for _, w := range liveQueue(res) {
		cp := *w
		cp.ch = make(chan lockResult, 1)
		c.queue = append(c.queue, &cp)
		c.wtree.Insert(cp.req.Range, cp.key, &cp)
	}
	return c
}

// engineStep applies ev to res through step and returns what the step
// decided, undelivered.
func (c *checker) engineStep(res *resource, ev chkEvent) (*effects, error) {
	e := event{kind: ev.kind, mode: ev.mode}
	switch ev.kind {
	case evEnqueue:
		e.w = &waiter{ch: make(chan lockResult, 1), enqAt: c.s.clk.Now(), req: Request{
			Resource: res.id, Client: ev.client, Mode: ev.mode, Range: extent.New(int64(ev.lo), int64(ev.hi))}}
	case evWithdraw:
		e.w = liveQueue(res)[ev.idx]
	default:
		ls, _ := sortedLocks(res)
		e.id = ls[ev.idx].id
	}
	fx := &effects{}
	res.mu.Lock()
	err := c.s.step(res, &e, fx)
	res.mu.Unlock()
	return fx, err
}

// check applies ev to both sides — res and sp are stepped in place —
// and returns what went wrong, or "". The engine is checked against
// itself first — CheckInvariants, then its Stats against its replies —
// and then against the spec.
func (c *checker) check(res *resource, sp *spec, ev chkEvent) string {
	before := c.s.Stats.Snapshot()
	countBefore := c.s.Stats.GrantWaitHist.Count()
	pre := slices.Clone(res.granted.list)
	fx, err := c.engineStep(res, ev)
	want := specStep(sp, ev)

	_, got := sortedLocks(res)
	h := fnv.New64a()
	fmt.Fprint(h, got)
	if k := h.Sum64(); !c.sound[k] {
		c.s.resources[res.id] = res
		if err := c.s.CheckInvariants(); err != nil {
			return err.Error()
		}
		c.sound[k] = true
	}
	after := c.s.Stats.Snapshot()
	grants := after.Grants - before.Grants
	if grants != int64(len(fx.sends)) {
		return fmt.Sprintf("Stats.Grants moved %d for %d grant replies", grants, len(fx.sends))
	}
	if n := c.s.Stats.GrantWaitHist.Count() - countBefore; n != grants {
		return fmt.Sprintf("GrantWaitHist counted %d for %d grants", n, grants)
	}
	if rw, cw, gw := after.RevocationWait-before.RevocationWait, after.CancelWait-before.CancelWait, after.GrantWait-before.GrantWait; rw+cw > gw {
		return fmt.Sprintf("revocation wait %v + cancel wait %v > grant wait %v", rw, cw, gw)
	}

	if (err != nil) != want.refused {
		return fmt.Sprintf("engine error %v, spec refused %v", err, want.refused)
	}
	if !slices.Equal(got, sp.locks) {
		return fmt.Sprintf("granted set\n    engine %v\n    spec   %v", got, sp.locks)
	}
	var queue []specWaiter
	for _, w := range liveQueue(res) {
		lo, hi := blocks(w.req.Range)
		queue = append(queue, specWaiter{client: w.req.Client, mode: w.req.Mode, lo: lo, hi: hi, id: w.key})
	}
	if !slices.Equal(queue, sp.queue) {
		return fmt.Sprintf("queue\n    engine %v\n    spec   %v", queue, sp.queue)
	}
	var granted []specGrant
	for _, g := range fx.sends {
		r := g.r.g
		lo, hi := blocks(r.Range)
		granted = append(granted, specGrant{waiter: g.w.key, absorbed: len(r.Absorbed), lock: specLock{client: g.w.req.Client,
			mode: r.Mode, lo: lo, hi: hi, canceling: r.State == Canceling, sn: r.SN, revoked: r.State == Canceling}})
	}
	if !slices.Equal(granted, want.grants) {
		return fmt.Sprintf("grants\n    engine %v\n    spec   %v", granted, want.grants)
	}
	var revoked []specLock
	for _, rv := range fx.revs {
		l := res.granted.get(rv.Lock)
		if i := slices.IndexFunc(pre, func(p *lock) bool { return p.id == rv.Lock }); l == nil && i >= 0 {
			l = pre[i]
		}
		if l == nil {
			return fmt.Sprintf("revocation of lock %d, granted and gone within the step", rv.Lock)
		}
		revoked = append(revoked, view(l))
	}
	return sameRevoked(revoked, want.revoked)
}

func (l specLock) String() string {
	end := fmt.Sprint(l.hi)
	if l.hi == specEOF {
		end = "EOF"
	}
	s := fmt.Sprintf("c%d %v [%d,%s) sn%d", l.client, l.mode, l.lo, end, l.sn)
	if l.canceling {
		s += " CANCELING"
	}
	if l.revoked {
		s += " revoked"
	}
	return s
}

func (w specWaiter) String() string {
	return fmt.Sprintf("#%d c%d %v [%d,%d)", w.id, w.client, w.mode, w.lo, w.hi)
}

func (g specGrant) String() string {
	return fmt.Sprintf("#%d gets %v absorbing %d", g.waiter, g.lock, g.absorbed)
}

// sameRevoked compares the locks revoked by both sides, in any order,
// on what identifies a lock through the step: client, mode, range, SN.
func sameRevoked(got, want []specLock) string {
	key := func(ls []specLock) []specLock {
		out := make([]specLock, len(ls))
		for i, l := range ls {
			out[i] = specLock{client: l.client, mode: l.mode, lo: l.lo, hi: l.hi, sn: l.sn}
		}
		slices.SortFunc(out, cmpLock)
		return out
	}
	if g, w := key(got), key(want); !slices.Equal(g, w) {
		return fmt.Sprintf("revocations\n    engine %v\n    spec   %v", g, w)
	}
	return ""
}

// stateHash is the canonical hash of a spec state, which the engine's
// agrees with after every checked step. Grant behaviour depends on
// neither the clients' names nor the SNs' values, only on which locks
// share a client and on SN order, so the hash is the least over every
// renaming of the clients of: the lock table in cmpLock order with SNs
// taken relative to the next one, then the queue in order.
func (c *checker) stateHash(sp *spec) uint64 {
	best := ^uint64(0)
	for _, perm := range c.perms {
		locks := slices.Clone(sp.locks)
		for i := range locks {
			locks[i].client = perm[locks[i].client]
			locks[i].sn = sp.nextSN - locks[i].sn
		}
		slices.SortFunc(locks, cmpLock)
		h := fnv.New64a()
		b := make([]byte, 0, 8*(len(locks)+len(sp.queue))+1)
		for _, l := range locks {
			b = append(b, byte(l.client), byte(l.mode), byte(l.lo), byte(l.hi),
				byte(btoi(l.canceling)|btoi(l.revoked)<<1), byte(l.sn))
		}
		b = append(b, 0xff)
		for _, w := range sp.queue {
			b = append(b, byte(perm[w.client]), byte(w.mode), byte(w.lo), byte(w.hi))
		}
		h.Write(b)
		best = min(best, h.Sum64())
	}
	return best
}

// permutations lists every renaming of clients 1..n, each a slice
// indexed by the old name.
func permutations(n int) [][]ClientID {
	if n == 0 {
		return [][]ClientID{{0}}
	}
	var out [][]ClientID
	for _, p := range permutations(n - 1) {
		for pos := 1; pos <= n; pos++ {
			q := make([]ClientID, n+1)
			for cl := 1; cl < n; cl++ {
				q[cl] = p[cl]
				if q[cl] >= ClientID(pos) {
					q[cl]++
				}
			}
			q[n] = ClientID(pos)
			out = append(out, q)
		}
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replay runs a choice sequence from the empty state on a fresh engine
// resource and spec, checking every step. It returns the sequence as
// far as it got, described, and the first disagreement, or "".
func (c *checker) replay(path []byte) (steps []string, diff string) {
	res := &resource{id: 1}
	sp := &spec{policy: c.policy}
	for _, choice := range path {
		evs := c.events(sp)
		ev := evs[int(choice)%len(evs)]
		steps = append(steps, describe(sp, ev))
		if diff = c.check(res, sp, ev); diff != "" {
			return steps, diff
		}
	}
	return steps, ""
}

// rebuild runs a choice sequence from the empty state on a fresh engine
// resource and spec, unchecked: the exploration keeps only the choices
// that reach a state, not the state itself.
func (c *checker) rebuild(path []byte) (*resource, *spec) {
	res, sp := &resource{id: 1}, &spec{policy: c.policy}
	for _, choice := range path {
		ev := c.events(sp)[choice]
		c.engineStep(res, ev)
		specStep(sp, ev)
	}
	return res, sp
}

// explore checks every event sequence of up to depth events, breadth
// first, expanding each distinct state once. It returns the number of
// sequences (transitions) checked, the distinct states reached, and the
// shortest failing sequence with its disagreement.
func (c *checker) explore(depth int) (seqs, states int, fail []byte, diff string) {
	seen := map[uint64]bool{c.stateHash(&spec{policy: c.policy}): true}
	level := [][]byte{nil}
	for d := 1; d <= depth && len(level) > 0; d++ {
		var next [][]byte
		for _, path := range level {
			base, bsp := c.rebuild(path)
			for i, ev := range c.events(bsp) {
				res, sp := cloneResource(base), bsp.clone()
				child := append(slices.Clip(path), byte(i))
				seqs++
				if diff := c.check(res, sp, ev); diff != "" {
					return seqs, len(seen), child, diff
				}
				if h := c.stateHash(sp); !seen[h] {
					seen[h] = true
					if d < depth {
						next = append(next, child)
					}
				}
			}
		}
		level = next
	}
	return seqs, len(seen), nil, ""
}

// runExplore explores one policy and fails tb with the shortest failing
// sequence.
func runExplore(tb testing.TB, policy Policy, clients, depth int) (seqs, states int) {
	tb.Helper()
	c := newChecker(policy, clients)
	defer c.s.Shutdown()
	seqs, states, fail, diff := c.explore(depth)
	if fail != nil {
		steps, _ := c.replay(fail)
		tb.Fatalf("%s: the step check fails after %d events (%d sequences checked):\n  %s\n  %s",
			policy.Name, len(fail), seqs, strings.Join(steps, "\n  "), diff)
	}
	return seqs, states
}

// TestGrantEngineMatchesSpec explores every event sequence of up to 4
// events, 3 clients, against the spec, for SeqDLM and DLM-basic.
// BenchmarkGrantSpec goes to depth 6.
func TestGrantEngineMatchesSpec(t *testing.T) {
	for _, p := range []Policy{SeqDLM(), Basic()} {
		seqs, states := runExplore(t, p, 3, 4)
		t.Logf("%s: depth 4, %d sequences, %d distinct states", p.Name, seqs, states)
	}
}

// BenchmarkGrantSpec is the deep run of the step checker: every event
// sequence of up to 6 events, 2 clients, for SeqDLM and DLM-basic. Run it
// once with -bench GrantSpec -benchtime 1x; it reports the sequences
// checked and the distinct states reached.
func BenchmarkGrantSpec(b *testing.B) {
	for _, p := range []Policy{SeqDLM(), Basic()} {
		b.Run(p.Name, func(b *testing.B) {
			for b.Loop() {
				seqs, states := runExplore(b, p, 2, 6)
				b.ReportMetric(float64(seqs), "sequences")
				b.ReportMetric(float64(states), "states")
			}
		})
	}
}

// FuzzGrantEngine checks event sequences past the BFS's depth against
// the spec: the first byte picks the policy, each further byte the next
// event among those possible, up to fuzzEvents events. The seeds are
// sequences the BFS reaches at depth 3.
func FuzzGrantEngine(f *testing.F) {
	const fuzzEvents = 64
	policies := []Policy{SeqDLM(), Basic()}
	for i, p := range policies {
		c := newChecker(p, 3)
		level := [][]byte{nil}
		for d := 0; d < 3; d++ {
			var next [][]byte
			for _, path := range level {
				_, sp := c.rebuild(path)
				for j := range c.events(sp) {
					next = append(next, append(slices.Clip(path), byte(j)))
				}
			}
			level = next
		}
		for k := 0; k < len(level); k += len(level)/32 + 1 {
			f.Add(append([]byte{byte(i)}, level[k]...))
		}
		c.s.Shutdown()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+fuzzEvents {
			return
		}
		c := newChecker(policies[int(data[0])%len(policies)], 3)
		defer c.s.Shutdown()
		if steps, diff := c.replay(data[1:]); diff != "" {
			t.Fatalf("%s: the step check fails after %d events:\n  %s\n  %s", c.policy.Name, len(steps), strings.Join(steps, "\n  "), diff)
		}
	})
}
