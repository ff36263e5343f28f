package dlm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"ccpfs/internal/extent"
)

// The composed protocol checker runs the lock server's step function and
// two lock clients' step functions over one resource of 4 blocks, with
// every message between them in a bag that delivers in any order. An
// event is an application op on a client — acquire a range in a mode,
// write under the lock held, unlock — or the delivery of any message in
// the bag: a lock request, a grant reply, a revocation and its reply,
// and the calls a cancel path makes (downgrade, flush, release). The
// cancel paths are the clients' own (LockClient.cancel), each run on a
// goroutine that blocks in its call until the checker delivers it; the
// checker lets one goroutine run at a time, so a sequence replays
// exactly. Delegation is off.
//
// After every event it checks, across client and server:
//   - no two conflicting grants coexist un-CANCELING, where a lock lives
//     from its grant until its release and, after that, for as long as
//     its holder still has data written under it that no flush has
//     landed: the later-granted of two overlapping live locks must be
//     compatible (Table II, early grant included) with the earlier;
//   - write SNs strictly increase in grant order.
//
// BFS explores every event sequence up to a depth, expanding each
// distinct state once under the client-symmetric hash of the step
// checker (speccheck_test.go), extended by the clients and the bag.

// pkind is a message in the bag.
type pkind uint8

const (
	pLock      pkind = iota // client → server: a lock request
	pGrant                  // server → client: a grant reply
	pRevoke                 // server → client: a revocation
	pRevokeAck              // client → server: the revocation's reply
	pDowngrade              // cancel path → server: a downgrade call
	pFlush                  // cancel path → data server: the cancel's flush
	pRelease                // cancel path → server: a release call
)

var pkindNames = [...]string{"lock", "grant", "revoke", "revoke-ack", "downgrade", "flush", "release"}

type pmsg struct {
	kind   pkind
	client ClientID
	id     LockID
	mode   Mode
	lo, hi int
	sn     extent.SN
	g      Grant
	reply  chan error // a call: its blocked cancel path's answer
}

// papp is a client's application: at most one acquire in flight or one
// lock held.
type papp struct {
	asking bool // the lock request or its grant is in the bag
	need   Mode
	lo, hi int
	h      *Handle
	wrote  bool
}

// pdirty is data a client wrote under the lock with SN sn that no flush
// has landed yet.
type pdirty struct {
	sn     extent.SN
	lo, hi int
}

// plive is a granted lock, in grant order.
type plive struct {
	client ClientID
	mode   Mode
	lo, hi int
	sn     extent.SN
	order  int
}

// pworld is one state of the composed system.
type pworld struct {
	s      *Server
	res    *resource
	lc     [3]*LockClient // clients 1 and 2
	app    [3]papp
	dirty  [3][]pdirty
	bag    []*pmsg
	live   map[LockID]*plive
	grants int
	lastW  extent.SN // the last write grant's SN (grants > 0)
	wrote  bool      // a write lock has been granted
	// asyncFlush is the mutant: a flush acknowledges before it lands, so
	// the cancel path releases before its data is durable.
	asyncFlush bool

	posted  chan *pmsg
	exited  chan struct{}
	abort   chan struct{}
	running int
}

var errAborted = errors.New("world aborted")

// pconn is a client's server connection and flusher: each call posts
// its message to the bag and blocks until the checker delivers it.
type pconn struct {
	w *pworld
	c ClientID
}

func (p pconn) Lock(context.Context, Request) (Grant, error) {
	panic("protocheck: lock requests are the checker's events")
}

func (p pconn) Release(_ context.Context, _ ResourceID, id LockID) error {
	return p.w.call(&pmsg{kind: pRelease, client: p.c, id: id})
}

func (p pconn) Downgrade(_ context.Context, _ ResourceID, id LockID, m Mode) error {
	return p.w.call(&pmsg{kind: pDowngrade, client: p.c, id: id, mode: m})
}

func (p pconn) FlushForCancel(_ context.Context, _ ResourceID, rng extent.Extent, sn extent.SN) error {
	lo, hi := blocks(rng)
	m := &pmsg{kind: pFlush, client: p.c, lo: lo, hi: hi, sn: sn}
	if p.w.asyncFlush {
		select {
		case p.w.posted <- m:
		case <-p.w.abort:
		}
		return nil
	}
	return p.w.call(m)
}

func newWorld(asyncFlush bool) *pworld {
	w := &pworld{s: NewServer(SeqDLM(), NotifierFunc(func(context.Context, Revocation) {})), res: &resource{id: 1},
		live: map[LockID]*plive{}, asyncFlush: asyncFlush,
		posted: make(chan *pmsg), exited: make(chan struct{}), abort: make(chan struct{})}
	for c := ClientID(1); c <= 2; c++ {
		conn := pconn{w, c}
		w.lc[c] = NewLockClient(c, SeqDLM(), func(ResourceID) ServerConn { return conn }, conn)
	}
	return w
}

// close releases the world's blocked cancel paths; they run to their end
// on their own.
func (w *pworld) close() {
	close(w.abort)
	w.s.Shutdown()
}

func (w *pworld) call(m *pmsg) error {
	m.reply = make(chan error, 1)
	select {
	case w.posted <- m:
	case <-w.abort:
		return errAborted
	}
	select {
	case err := <-m.reply:
		return err
	case <-w.abort:
		return errAborted
	}
}

// settle waits until the one cancel path that can run blocks in a call
// or ends.
func (w *pworld) settle() {
	for {
		select {
		case m := <-w.posted:
			w.bag = append(w.bag, m)
			if m.reply != nil {
				return
			}
		case <-w.exited:
			w.running--
			return
		}
	}
}

// answer replies to a delivered call and lets its cancel path run on.
func (w *pworld) answer(m *pmsg, err error) {
	m.reply <- err
	w.settle()
}

func (w *pworld) spawnCancel(c ClientID, h *Handle) {
	w.running++
	go func() {
		w.lc[c].cancel(h)
		select {
		case w.exited <- struct{}{}:
		case <-w.abort:
		}
	}()
	w.settle()
}

// clientStep runs one client transition; the checker applies its effects.
func (w *pworld) clientStep(c ClientID, ev *clientEvent) clientEffects {
	var fx clientEffects
	lc := w.lc[c]
	lc.st.mu.Lock()
	lc.step(w.res.id, ev, &fx)
	lc.st.mu.Unlock()
	if fx.cancel {
		w.spawnCancel(c, fx.h)
	}
	return fx
}

// serverStep runs one server transition and posts its grant replies and
// revocations; it checks the SNs of the grants.
func (w *pworld) serverStep(e event) (error, string) {
	fx := &effects{}
	w.res.mu.Lock()
	err := w.s.step(w.res, &e, fx)
	w.res.mu.Unlock()
	for _, gs := range fx.sends {
		g := gs.r.g
		if g.Mode.IsWrite() {
			if w.wrote && g.SN <= w.lastW {
				return err, fmt.Sprintf("write lock granted with SN %d after one with SN %d", g.SN, w.lastW)
			}
			w.wrote, w.lastW = true, g.SN
		}
		for _, id := range g.Absorbed {
			delete(w.live, id)
		}
		w.grants++
		lo, hi := blocks(g.Range)
		w.live[g.LockID] = &plive{client: gs.w.req.Client, mode: g.Mode, lo: lo, hi: hi, sn: g.SN, order: w.grants}
		w.bag = append(w.bag, &pmsg{kind: pGrant, client: gs.w.req.Client, g: g})
	}
	for _, rv := range fx.revs {
		w.bag = append(w.bag, &pmsg{kind: pRevoke, client: rv.Client, id: rv.Lock})
	}
	return err, ""
}

// pevent is one event: an application op on a client, or the delivery of
// bag[msg].
type pevent struct {
	op     byte // 'a'cquire, 'w'rite, 'u'nlock, 'd'eliver
	client ClientID
	mode   Mode
	lo, hi int
	msg    int
}

// events lists what may happen next.
func (w *pworld) events(modes []Mode, ranges [][2]int) []pevent {
	var evs []pevent
	for c := ClientID(1); c <= 2; c++ {
		switch a := w.app[c]; {
		case a.h != nil:
			if a.need.IsWrite() && !a.wrote {
				evs = append(evs, pevent{op: 'w', client: c})
			}
			evs = append(evs, pevent{op: 'u', client: c})
		case !a.asking:
			for _, m := range modes {
				for _, r := range ranges {
					evs = append(evs, pevent{op: 'a', client: c, mode: m, lo: r[0], hi: r[1]})
				}
			}
		}
	}
	for i := range w.bag {
		evs = append(evs, pevent{op: 'd', msg: i})
	}
	return evs
}

func (w *pworld) describe(ev pevent) string {
	switch ev.op {
	case 'a':
		return fmt.Sprintf("c%d acquires %v [%d,%d)", ev.client, ev.mode, ev.lo, ev.hi)
	case 'w':
		a := w.app[ev.client]
		return fmt.Sprintf("c%d writes [%d,%d) under sn%d", ev.client, a.lo, a.hi, a.h.SN())
	case 'u':
		return fmt.Sprintf("c%d unlocks", ev.client)
	}
	m := w.bag[ev.msg]
	s := fmt.Sprintf("deliver %s c%d", pkindNames[m.kind], m.client)
	switch m.kind {
	case pLock:
		s += fmt.Sprintf(" %v [%d,%d)", m.mode, m.lo, m.hi)
	case pGrant:
		lo, hi := blocks(m.g.Range)
		s += fmt.Sprintf(" %v [%d,%d) sn%d %v", m.g.Mode, lo, hi, m.g.SN, m.g.State)
	case pDowngrade:
		s += fmt.Sprintf(" lock %d to %v", m.id, m.mode)
	case pFlush:
		s += fmt.Sprintf(" [%d,%d) up to sn%d", m.lo, m.hi, m.sn)
	default:
		s += fmt.Sprintf(" lock %d", m.id)
	}
	return s
}

// apply runs ev and returns the first violation it leads to, or "".
func (w *pworld) apply(ev pevent) string {
	res := w.res.id
	switch ev.op {
	case 'a':
		a := &w.app[ev.client]
		*a = papp{need: ev.mode, lo: ev.lo, hi: ev.hi}
		fx := w.clientStep(ev.client, &clientEvent{kind: cevHit, need: ev.mode, rng: extent.New(int64(ev.lo), int64(ev.hi))})
		if a.h = fx.h; a.h == nil {
			a.asking = true
			w.bag = append(w.bag, &pmsg{kind: pLock, client: ev.client, mode: ev.mode, lo: ev.lo, hi: ev.hi})
		}
	case 'w':
		a := &w.app[ev.client]
		w.dirty[ev.client] = append(w.dirty[ev.client], pdirty{a.h.SN(), a.lo, a.hi})
		a.wrote = true
	case 'u':
		h := w.app[ev.client].h
		w.app[ev.client] = papp{}
		w.clientStep(ev.client, &clientEvent{kind: cevUnlock, h: h})
	case 'd':
		m := w.bag[ev.msg]
		w.bag = slices.Delete(w.bag, ev.msg, ev.msg+1)
		var bad string
		switch m.kind {
		case pLock:
			wt := &waiter{ch: make(chan lockResult, 1), req: Request{Resource: res, Client: m.client, Mode: m.mode,
				Range: extent.New(int64(m.lo), int64(m.hi))}}
			_, bad = w.serverStep(event{kind: evEnqueue, w: wt})
		case pGrant:
			a := &w.app[m.client]
			ge := grantEvent(&m.g, a.need)
			fx := w.clientStep(m.client, &ge)
			a.asking, a.h = false, fx.h
		case pRevoke:
			w.bag = append(w.bag, &pmsg{kind: pRevokeAck, client: m.client, id: m.id})
			w.clientStep(m.client, &clientEvent{kind: cevRevoke, id: m.id})
		case pRevokeAck:
			_, bad = w.serverStep(event{kind: evRevokeAck, id: m.id})
		case pDowngrade:
			var err error
			err, bad = w.serverStep(event{kind: evDowngrade, id: m.id, mode: m.mode})
			w.answer(m, err)
		case pFlush:
			w.dirty[m.client] = slices.DeleteFunc(w.dirty[m.client], func(d pdirty) bool {
				return d.sn <= m.sn && overlap(d.lo, d.hi, m.lo, m.hi)
			})
			if m.reply != nil {
				w.answer(m, nil)
			}
		case pRelease:
			_, bad = w.serverStep(event{kind: evRelease, id: m.id})
			w.answer(m, nil)
		}
		if bad != "" {
			return bad
		}
	}
	return w.check()
}

// check reports two live locks that conflict: the later-granted of two
// overlapping ones must be compatible with the earlier, in the state and
// mode the earlier is in now. A lock released with data still unflushed
// is live, CANCELING.
func (w *pworld) check() string {
	type lv struct {
		*plive
		state State
	}
	var ls []lv
	for id, p := range w.live {
		if l := w.res.granted.get(id); l != nil {
			p.mode = l.mode
			ls = append(ls, lv{p, l.state})
		} else if slices.ContainsFunc(w.dirty[p.client], func(d pdirty) bool { return d.sn == p.sn }) {
			ls = append(ls, lv{p, Canceling})
		} else {
			delete(w.live, id)
		}
	}
	slices.SortFunc(ls, func(a, b lv) int { return cmp.Compare(a.order, b.order) })
	for i, a := range ls {
		for _, b := range ls[i+1:] {
			if overlap(a.lo, a.hi, b.lo, b.hi) && !w.s.compatible(b.mode, &lock{mode: a.mode, state: a.state}) {
				return fmt.Sprintf("conflicting grants: c%d %v [%d,%d) sn%d %v, then c%d %v [%d,%d) sn%d",
					a.client, a.mode, a.lo, a.hi, a.sn, a.state, b.client, b.mode, b.lo, b.hi, b.sn)
			}
		}
	}
	return ""
}

// hash is the canonical hash of the world: the least, over both namings
// of the clients, of the server's lock table and queue, each client's
// application, cache, notes and unflushed data, the live locks in grant
// order, and the bag. Lock IDs and SNs are taken relative to the next
// ones, as the step checker takes SNs.
func (w *pworld) hash(perms [][]ClientID) uint64 {
	nextID, nextSN := LockID(w.s.nextLock.Load()), w.res.nextSN
	id := func(x LockID) byte { return byte(nextID - x) }
	sn := func(x extent.SN) byte { return byte(nextSN - x) }
	sorted := func(rows [][]byte) []byte {
		slices.SortFunc(rows, slices.Compare)
		return slices.Concat(append(rows, []byte{0xff})...)
	}
	best := ^uint64(0)
	for _, perm := range perms {
		var rows [][]byte
		for _, l := range w.res.granted.list {
			lo, hi := blocks(l.rng)
			rows = append(rows, []byte{byte(perm[l.client]), byte(l.mode), byte(lo), byte(hi), byte(l.state),
				byte(btoi(l.revokeSent)), sn(l.sn), id(l.id)})
		}
		b := sorted(rows)
		for _, q := range liveQueue(w.res) {
			lo, hi := blocks(q.req.Range)
			b = append(b, byte(perm[q.req.Client]), byte(q.req.Mode), byte(lo), byte(hi))
		}
		b = append(b, 0xff)
		for named := ClientID(1); named <= 2; named++ {
			c := slices.Index(perm, named)
			b = append(b, w.clientBytes(ClientID(c), id, sn)...)
		}
		rows = rows[:0]
		for _, m := range w.bag {
			row := []byte{byte(m.kind), byte(perm[m.client]), byte(btoi(m.reply != nil))}
			switch m.kind {
			case pLock:
				row = append(row, byte(m.mode), byte(m.lo), byte(m.hi))
			case pGrant:
				lo, hi := blocks(m.g.Range)
				row = append(row, id(m.g.LockID), byte(m.g.Mode), byte(lo), byte(hi), sn(m.g.SN), byte(m.g.State), byte(len(m.g.Absorbed)))
			case pFlush:
				row = append(row, byte(m.lo), byte(m.hi), sn(m.sn))
			default:
				row = append(row, id(m.id), byte(m.mode))
			}
			rows = append(rows, row)
		}
		b = append(b, sorted(rows)...)
		live := slices.Collect(func(yield func(*plive) bool) {
			for _, p := range w.live {
				if !yield(p) {
					return
				}
			}
		})
		slices.SortFunc(live, func(a, b *plive) int { return cmp.Compare(a.order, b.order) })
		for _, p := range live {
			b = append(b, byte(perm[p.client]), byte(p.mode), byte(p.lo), byte(p.hi), sn(p.sn))
		}
		b = append(b, byte(btoi(w.wrote)), sn(w.lastW))
		h := fnv.New64a()
		h.Write(b)
		best = min(best, h.Sum64())
	}
	return best
}

// clientBytes serializes client c's application, cache, notes and
// unflushed data.
func (w *pworld) clientBytes(c ClientID, id func(LockID) byte, sn func(extent.SN) byte) []byte {
	a := w.app[c]
	held := byte(0xff)
	if a.h != nil {
		held = id(a.h.id)
	}
	b := []byte{byte(btoi(a.asking)), byte(a.need), byte(a.lo), byte(a.hi), held, byte(btoi(a.wrote))}
	st := &w.lc[c].st
	st.mu.Lock()
	var rows [][]byte
	for _, h := range st.cached[w.res.id] {
		lo, hi := blocks(h.rng)
		rows = append(rows, []byte{0, id(h.id), byte(h.mode), byte(h.state), byte(h.holds), byte(btoi(h.wrote)),
			byte(btoi(h.canceling)), byte(btoi(h.releaseSent)), byte(lo), byte(hi), sn(h.sn)})
	}
	for k, n := range st.notes {
		rows = append(rows, []byte{1, id(k.id), byte(btoi(n.revoked)), byte(btoi(n.gone))})
	}
	st.mu.Unlock()
	for _, d := range w.dirty[c] {
		rows = append(rows, []byte{2, sn(d.sn), byte(d.lo), byte(d.hi)})
	}
	slices.SortFunc(rows, slices.Compare)
	return append(append(b, slices.Concat(rows...)...), 0xfe)
}

// protoChecker holds the alphabet of a checking run.
type protoChecker struct {
	modes      []Mode
	ranges     [][2]int
	asyncFlush bool
}

// replay runs a choice sequence from the empty world. It returns the
// world (to close), the sequence described as far as it got, and the
// first violation, or "".
func (pc *protoChecker) replay(path []byte) (w *pworld, steps []string, bad string) {
	w = newWorld(pc.asyncFlush)
	for _, choice := range path {
		ev := w.events(pc.modes, pc.ranges)[choice]
		steps = append(steps, w.describe(ev))
		if bad = w.apply(ev); bad != "" {
			break
		}
	}
	return w, steps, bad
}

// explore checks every event sequence of up to depth events, breadth
// first, expanding each distinct world once. It returns the sequences
// checked, the distinct worlds reached, and the shortest failing
// sequence with its violation.
func (pc *protoChecker) explore(depth int) (seqs, states int, fail []byte, bad string) {
	perms := permutations(2)
	w, _, _ := pc.replay(nil)
	seen := map[uint64]bool{w.hash(perms): true}
	w.close()
	level := [][]byte{nil}
	for d := 1; d <= depth && len(level) > 0; d++ {
		var next [][]byte
		for _, path := range level {
			w, _, _ := pc.replay(path)
			n := len(w.events(pc.modes, pc.ranges))
			w.close()
			for i := 0; i < n; i++ {
				child := append(slices.Clip(path), byte(i))
				seqs++
				w, _, bad := pc.replay(child)
				if bad != "" {
					w.close()
					return seqs, len(seen), child, bad
				}
				if h := w.hash(perms); !seen[h] {
					seen[h] = true
					if d < depth {
						next = append(next, child)
					}
				}
				w.close()
			}
		}
		level = next
	}
	return seqs, len(seen), nil, ""
}

// runProtoCheck explores to depth and returns the failing sequence,
// described, with its violation.
func runProtoCheck(pc *protoChecker, depth int) (seqs, states int, failure string) {
	seqs, states, fail, bad := pc.explore(depth)
	if fail == nil {
		return seqs, states, ""
	}
	w, steps, _ := pc.replay(fail)
	w.close()
	return seqs, states, fmt.Sprintf("fails after %d events (%d sequences checked):\n  %s\n  %s",
		len(fail), seqs, strings.Join(steps, "\n  "), bad)
}

// TestProtocolComposed explores every event sequence of up to 10 events
// of the server and two clients asking for PR, NBW or PW over two
// overlapping ranges, and checks that the release-before-flush mutant —
// a flush that acknowledges before its data lands, so the cancel path
// releases first — fails within that depth, printing its shortest
// sequence (it takes 9 events). BenchmarkProtocolComposed goes deeper.
func TestProtocolComposed(t *testing.T) {
	const depth = 10
	pc := protoChecker{modes: []Mode{PR, NBW, PW}, ranges: [][2]int{{0, 2}, {1, 3}}}
	seqs, states, failure := runProtoCheck(&pc, depth)
	if failure != "" {
		t.Fatalf("the protocol check %s", failure)
	}
	t.Logf("depth %d: %d sequences, %d distinct worlds", depth, seqs, states)

	pc.asyncFlush = true
	_, _, failure = runProtoCheck(&pc, depth)
	if !strings.Contains(failure, "conflicting grants") {
		t.Fatalf("release before flush was not caught within %d events (got %q)", depth, failure)
	}
	t.Logf("release before flush %s", failure)
}

// BenchmarkProtocolComposed is the deep run of the composed checker: all
// four SeqDLM modes over three ranges, to depth 11. Run it once with
// -bench ProtocolComposed -benchtime 1x; it reports the sequences
// checked and the distinct worlds reached.
func BenchmarkProtocolComposed(b *testing.B) {
	pc := protoChecker{modes: []Mode{PR, NBW, BW, PW}, ranges: specRanges}
	for b.Loop() {
		seqs, states, failure := runProtoCheck(&pc, 11)
		if failure != "" {
			b.Fatalf("the protocol check %s", failure)
		}
		b.ReportMetric(float64(seqs), "sequences")
		b.ReportMetric(float64(states), "states")
	}
}
