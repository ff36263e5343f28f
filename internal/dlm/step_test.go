package dlm

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
)

// Pinned engine transitions: one deterministic test per branch of a
// grant-state step that no scenario test reaches on its own. Each drives
// the Server's entry points directly, without lock clients.

// recNotifier records the engine's callbacks and answers none of them.
type recNotifier struct {
	mu   sync.Mutex
	revs []Revocation
	acts []activationMsg
}

func (n *recNotifier) RevokeBatch(_ context.Context, _ ClientID, revs []Revocation) {
	n.mu.Lock()
	n.revs = append(n.revs, revs...)
	n.mu.Unlock()
}

func (n *recNotifier) Handoff(_ context.Context, client ClientID, res ResourceID, id, member LockID) {
	n.mu.Lock()
	n.acts = append(n.acts, activationMsg{client: client, res: res, id: id, member: member})
	n.mu.Unlock()
}

func (n *recNotifier) SolicitAck(context.Context, ClientID, ResourceID, LockID) {}

func (n *recNotifier) activations() []activationMsg {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]activationMsg(nil), n.acts...)
}

func (n *recNotifier) revocations() []Revocation {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Revocation(nil), n.revs...)
}

// mustLock is a Lock that must be answered at once.
func mustLock(t *testing.T, s *Server, req Request) Grant {
	t.Helper()
	g, err := s.Lock(context.Background(), req)
	if err != nil {
		t.Fatalf("Lock(%+v): %v", req, err)
	}
	return g
}

// lockAsync runs a Lock that is expected to queue on its own goroutine,
// returns once it is queued, and delivers its outcome on the channel.
func lockAsync(t *testing.T, s *Server, ctx context.Context, req Request) <-chan lockResult {
	t.Helper()
	before := s.QueueLen(req.Resource)
	ch := make(chan lockResult, 1)
	go func() {
		g, err := s.Lock(ctx, req)
		ch <- lockResult{g: g, err: err}
	}()
	waitFor(t, "request queued", func() bool { return s.QueueLen(req.Resource) == before+1 })
	return ch
}

func recv(t *testing.T, ch <-chan lockResult) lockResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
	}
	return lockResult{}
}

// hookCtx is a canceled context whose first Err call runs hook: the
// waiting Lock sees the cancellation, and hook gets to act between that
// and the withdrawal.
type hookCtx struct {
	context.Context
	once sync.Once
	hook func()
}

func (c *hookCtx) Err() error {
	c.once.Do(c.hook)
	return context.Canceled
}

// TestLockGrantRacedCancellation: a waiter's context fires, and the
// grant lands before the withdrawal takes the resource lock. The lock
// the caller will never see must be released on its behalf, and the
// waiter queued behind it granted.
func TestLockGrantRacedCancellation(t *testing.T) {
	s := NewServer(SeqDLM(), &recNotifier{})
	defer s.Shutdown()
	rng := extent.New(0, 10)
	a := mustLock(t, s, Request{Resource: 1, Client: 1, Mode: NBW, Range: rng})

	var third <-chan lockResult
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &hookCtx{Context: canceled, hook: func() {
		third = lockAsync(t, s, context.Background(), Request{Resource: 1, Client: 3, Mode: NBW, Range: rng})
		s.Release(1, a.LockID) // grants client 2, whose caller has already given up
	}}
	if _, err := s.Lock(ctx, Request{Resource: 1, Client: 2, Mode: NBW, Range: rng}); err == nil {
		t.Fatal("canceled Lock returned a grant")
	}
	r := recv(t, third)
	if r.err != nil {
		t.Fatalf("queued waiter: %v", r.err)
	}
	if got := s.GrantedCount(1); got != 1 {
		t.Fatalf("granted locks = %d, want 1 (the raced grant must be released)", got)
	}
	if got := s.Stats.Grants.Load(); got != 3 {
		t.Fatalf("Grants = %d, want 3", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// gatherOverReaders has clients 2 and 3 hold PR locks and client 4 gather
// them into a write; it returns the readers' grants and the writer's.
func gatherOverReaders(t *testing.T, s *Server) (r2, r3, w Grant) {
	t.Helper()
	rng := extent.New(0, 10)
	r2 = mustLock(t, s, Request{Resource: 1, Client: 2, Mode: PR, Range: rng})
	r3 = mustLock(t, s, Request{Resource: 1, Client: 3, Mode: PR, Range: rng})
	w = mustLock(t, s, Request{Resource: 1, Client: 4, Mode: NBW, Range: rng})
	if w.GatherParts != 2 || w.HandBack == nil {
		t.Fatalf("writer did not gather the readers: %+v", w)
	}
	return r2, r3, w
}

// TestReleaseOwingBroadcastActivatesCohort: a gathering writer owing
// its pre-armed handback releases instead of transferring it, and the
// server activates every lease of the cohort itself.
func TestReleaseOwingBroadcastActivatesCohort(t *testing.T) {
	n := &recNotifier{}
	s := NewServer(reclaimEvery(handoffPolicy(), time.Hour), n)
	defer s.Shutdown()
	_, _, w := gatherOverReaders(t, s)
	s.HandoffAck(1, w.LockID) // the writer collected its parts; the cohort retires

	s.Release(1, w.LockID)
	waitFor(t, "cohort activations", func() bool { return len(n.activations()) == 2 })
	want := map[LockID]ClientID{}
	for _, l := range w.HandBack.Leases {
		want[l.LockID] = l.Owner
	}
	for _, a := range n.activations() {
		if c, ok := want[a.id]; !ok || c != a.client {
			t.Fatalf("activation %+v, want one per lease %v", a, want)
		}
		delete(want, a.id)
	}
	res := s.lookup(1)
	for _, l := range w.HandBack.Leases {
		if g := res.granted.get(l.LockID); g == nil || g.delegated {
			t.Fatalf("lease %d not resolved: %+v", l.LockID, g)
		}
	}
	if got := s.GrantedCount(1); got != 2 {
		t.Fatalf("granted locks = %d, want the 2 leases", got)
	}
	if got := s.Stats.HandoffReclaims.Load(); got != 2 {
		t.Fatalf("HandoffReclaims = %d, want the 2 force-resolved leases", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRunBehindHandedOffWriter: a run of readers queued behind a
// writer that was handed the lock is served by the two server paths,
// not as a cohort: once the writer's lock settles, the head reader is
// handed it as a single successor, and when the writer releases, the
// rest of the run is granted in one batched fan run. Every reader's SN
// is above the writer's.
func TestReaderRunBehindHandedOffWriter(t *testing.T) {
	n := &recNotifier{}
	s := NewServer(reclaimEvery(handoffPolicy(), time.Hour), n)
	defer s.Shutdown()
	rng := extent.New(0, 10)
	mustLock(t, s, Request{Resource: 1, Client: 1, Mode: NBW, Range: rng})
	w := mustLock(t, s, Request{Resource: 1, Client: 4, Mode: NBW, Range: rng})
	if !w.Delegated {
		t.Fatalf("second writer not handed the lock: %+v", w)
	}
	var readers []<-chan lockResult
	for _, c := range []ClientID{2, 3, 5} {
		readers = append(readers, lockAsync(t, s, context.Background(), Request{Resource: 1, Client: c, Mode: PR, Range: rng}))
	}
	s.HandoffAck(1, w.LockID) // the writer's lock settles, quiet

	head := recv(t, readers[0])
	if head.err != nil || !head.g.Delegated {
		t.Fatalf("head reader not handed the lock: %+v", head)
	}
	if got := s.QueueLen(1); got != 2 {
		t.Fatalf("queued readers = %d, want the 2 behind the head", got)
	}
	s.Release(1, w.LockID) // resolves the head's delegation, frees the rest
	rest := []lockResult{recv(t, readers[1]), recv(t, readers[2])}
	for _, r := range append(rest, head) {
		if r.err != nil || r.g.SN <= w.SN {
			t.Fatalf("reader %+v, want an SN above the writer's %d", r, w.SN)
		}
	}
	for _, r := range rest {
		if r.g.Delegated {
			t.Fatalf("reader %+v delegated, want a server grant", r)
		}
	}
	snap := s.Stats.Snapshot()
	if snap.Handoffs != 2 || snap.FanRuns != 1 || snap.FanGrants != 2 || snap.Broadcasts != 0 || snap.LeaseGrants != 0 {
		t.Fatalf("Handoffs %d FanRuns %d FanGrants %d Broadcasts %d LeaseGrants %d, want 2 1 2 0 0",
			snap.Handoffs, snap.FanRuns, snap.FanGrants, snap.Broadcasts, snap.LeaseGrants)
	}
	waitFor(t, "head activation", func() bool { return len(n.activations()) == 1 })
	if a := n.activations()[0]; a.client != 2 || a.id != head.g.LockID {
		t.Fatalf("activation %+v, want the head reader's lock %d", a, head.g.LockID)
	}
	if got := s.GrantedCount(1); got != 3 {
		t.Fatalf("granted locks = %d, want the 3 readers'", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// livePreds counts the predecessors of delegated lock id still in the
// table of resource res. Called with res.mu held.
func livePreds(res *resource, id LockID) int {
	n := 0
	if l := res.granted.get(id); l != nil {
		for _, p := range l.preds {
			if res.granted.get(p.id) == p {
				n++
			}
		}
	}
	return n
}

// TestReleaseByGatherMemberCountsDown: each cohort member that releases
// instead of transferring its part has the server send the gathering
// writer that part, naming the member; when the last member released,
// the delegation is resolved server-side too.
func TestReleaseByGatherMemberCountsDown(t *testing.T) {
	n := &recNotifier{}
	s := NewServer(reclaimEvery(handoffPolicy(), time.Hour), n)
	defer s.Shutdown()
	r2, r3, w := gatherOverReaders(t, s)
	res := s.lookup(1)
	wl := res.granted.get(w.LockID)

	s.Release(1, r2.LockID)
	waitFor(t, "first member's part", func() bool { return len(n.activations()) == 1 })
	if left := livePreds(res, w.LockID); left != 1 || !wl.delegated {
		t.Fatalf("after one part: %d members left, delegated %v", left, wl.delegated)
	}
	s.Release(1, r3.LockID)
	waitFor(t, "second member's part", func() bool { return len(n.activations()) == 2 })
	for i, m := range []LockID{r2.LockID, r3.LockID} {
		if a := n.activations()[i]; a.client != 4 || a.id != w.LockID || a.member != m {
			t.Fatalf("part %d = %+v, want the writer's lock %d naming member %d", i, a, w.LockID, m)
		}
	}
	if left := livePreds(res, w.LockID); left != 0 || wl.delegated {
		t.Fatalf("writer still delegated with %d members left", left)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// fwdNotifier is recNotifier that first delivers every server-sent part
// or activation to lock client c.
type fwdNotifier struct {
	recNotifier
	c *LockClient
}

func (n *fwdNotifier) Handoff(ctx context.Context, client ClientID, res ResourceID, id, member LockID) {
	n.c.OnTransfer(res, Transfer{Lock: id, Member: member, Final: member == 0})
	n.recNotifier.Handoff(ctx, client, res, id, member)
}

// hookConn is directConn whose Lock hands each grant to hook before the
// client sees the reply.
type hookConn struct {
	directConn
	hook func(Grant)
}

func (c hookConn) Lock(ctx context.Context, req Request) (Grant, error) {
	g, err := c.srv.Lock(ctx, req)
	if err == nil {
		c.hook(g)
	}
	return g, err
}

// TestReleaseByHandoffHolderSendsPart: a handoff's holder releases
// instead of transferring. The server sends the
// successor a part naming the holder and resolves the delegation, as it
// does for the last gather member to release; the successor's delegated
// acquire returns whether that part lands before its grant reply or
// after it, and no reclaim entry is left behind.
func TestReleaseByHandoffHolderSendsPart(t *testing.T) {
	for _, before := range []bool{true, false} {
		name := "part-after-reply"
		if before {
			name = "part-before-reply"
		}
		t.Run(name, func(t *testing.T) {
			p := reclaimEvery(handoffPolicy(), time.Hour)
			n := &fwdNotifier{}
			s := NewServer(p, n)
			defer s.Shutdown()
			rng := extent.New(0, 10)
			holder := mustLock(t, s, Request{Resource: 1, Client: 1, Mode: PW, Range: rng})
			granted := make(chan Grant, 1)
			conn := hookConn{directConn: directConn{s}, hook: func(g Grant) {
				if before {
					s.Release(1, holder.LockID)
					waitFor(t, "the holder's part", func() bool { return len(n.activations()) == 1 })
				}
				granted <- g
			}}
			n.c = NewLockClient(2, p, func(ResourceID) ServerConn { return conn }, &recFlusher{})
			defer n.c.Close()
			done := acquireAsync(t, n.c, 1, PW, rng)
			g := <-granted
			if !g.Delegated {
				t.Fatalf("successor not handed the lock: %+v", g)
			}
			if !before {
				waitFor(t, "the successor waiting for its transfer", func() bool {
					n.c.st.mu.Lock()
					defer n.c.st.mu.Unlock()
					tw := n.c.st.pendingHandoffs[lockKey{1, g.LockID}]
					return tw != nil && tw.need > 0
				})
				s.Release(1, holder.LockID)
			}
			hd := <-done
			if hd == nil || hd.id != g.LockID {
				t.Fatalf("delegated acquire = %+v, want lock %d", hd, g.LockID)
			}
			if a := n.activations(); len(a) != 1 || a[0] != (activationMsg{client: 2, res: 1, id: g.LockID, member: holder.LockID}) {
				t.Fatalf("activations %+v, want one part for lock %d naming the holder %d", a, g.LockID, holder.LockID)
			}
			s.reclaim.mu.Lock()
			_, pending := s.reclaim.entries[lockKey{1, g.LockID}]
			s.reclaim.mu.Unlock()
			if pending {
				t.Fatal("the resolved delegation's reclaim entry is still registered")
			}
			if l := s.lookup(1).granted.get(g.LockID); l == nil || l.delegated || s.GrantedCount(1) != 1 {
				t.Fatalf("successor lock %+v of %d granted, want the one resolved lock", l, s.GrantedCount(1))
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReclaimForceLiveProviderNudges: a pre-armed handback lease whose
// provider, the gathering writer, still holds its lock is not forced
// active behind it: the reclaimer's force step re-revokes the writer
// instead.
func TestReclaimForceLiveProviderNudges(t *testing.T) {
	n := &recNotifier{}
	s := NewServer(reclaimEvery(handoffPolicy(), time.Hour), n)
	defer s.Shutdown()
	_, _, w := gatherOverReaders(t, s)
	lease := w.HandBack.Leases[0].LockID

	s.reclaim.mu.Lock()
	e := *s.reclaim.entries[lockKey{res: 1, id: lease}]
	s.reclaim.mu.Unlock()
	revs := s.Stats.Revocations.Load()
	s.do(s.lookup(1), &event{kind: evReclaim, e: &e})

	if got := s.Stats.Revocations.Load() - revs; got != 1 {
		t.Fatalf("revocations sent = %d, want 1", got)
	}
	waitFor(t, "writer re-revoked", func() bool {
		for _, rv := range n.revocations() {
			if rv.Lock == w.LockID && rv.Client == 4 && rv.Handoff == nil {
				return true
			}
		}
		return false
	})
	if l := s.lookup(1).granted.get(lease); l == nil || !l.delegated {
		t.Fatalf("lease forced active behind its live provider: %+v", l)
	}
	if got := s.Stats.HandoffReclaims.Load(); got != 0 {
		t.Fatalf("HandoffReclaims = %d, want 0", got)
	}
	if len(n.activations()) != 0 {
		t.Fatalf("activations %v, want none", n.activations())
	}
}

// TestInvalidDowngrade: a downgrade outside the §III-D2 routes, of an
// unknown lock, or on an unknown resource is refused and changes nothing.
func TestInvalidDowngrade(t *testing.T) {
	s := NewServer(SeqDLM(), &recNotifier{})
	defer s.Shutdown()
	g := mustLock(t, s, Request{Resource: 1, Client: 1, Mode: BW, Range: extent.New(0, 10)})
	for _, c := range []struct {
		res  ResourceID
		id   LockID
		mode Mode
		want string
	}{
		{1, g.LockID, PR, "invalid downgrade BW -> PR"},
		{1, g.LockID, PW, "invalid downgrade BW -> PW"},
		{1, g.LockID + 100, NBW, "unknown lock"},
		{2, g.LockID, NBW, "unknown lock"},
	} {
		err := s.Downgrade(c.res, c.id, c.mode)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Downgrade(%d, %d, %v) = %v, want %q", c.res, c.id, c.mode, err, c.want)
		}
	}
	if l := s.lookup(1).granted.get(g.LockID); l.mode != BW {
		t.Fatalf("mode = %v after refused downgrades", l.mode)
	}
	if got := s.Stats.Downgrades.Load(); got != 0 {
		t.Fatalf("Downgrades = %d, want 0", got)
	}
	if err := s.Downgrade(1, g.LockID, NBW); err != nil {
		t.Fatalf("valid downgrade: %v", err)
	}
}

// TestCheckInvariantsReportsOverlap: two overlapping GRANTED write locks
// of different clients are the violation CheckInvariants exists to
// report.
func TestCheckInvariantsReportsOverlap(t *testing.T) {
	s := NewServer(SeqDLM(), &recNotifier{})
	defer s.Shutdown()
	res := s.resource(1)
	res.granted.insert(&lock{id: 1, client: 1, mode: NBW, rng: extent.New(0, 10)})
	res.granted.insert(&lock{id: 2, client: 2, mode: PW, rng: extent.New(5, 15)})
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "overlapping GRANTED locks") {
		t.Fatalf("CheckInvariants = %v, want the overlap reported", err)
	}
}
