package dlm

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/extent"
)

// harness wires a Server and several LockClients directly (no RPC), so
// protocol behaviour is tested in isolation. The notifier delivers the
// revocation callback into the client and then acks to the server,
// mimicking the RPC round trip.
type harness struct {
	srv     *Server
	flusher *recFlusher
	clients map[ClientID]*LockClient

	mu         sync.Mutex
	revokeGate chan struct{} // when non-nil, revocation delivery waits on it
}

func (h *harness) setRevokeGate(gate chan struct{}) {
	h.mu.Lock()
	h.revokeGate = gate
	h.mu.Unlock()
}

type directConn struct{ srv *Server }

func (d directConn) Lock(ctx context.Context, req Request) (Grant, error) {
	return d.srv.Lock(ctx, req)
}
func (d directConn) Release(_ context.Context, res ResourceID, id LockID) error {
	d.srv.Release(res, id)
	return nil
}
func (d directConn) Downgrade(_ context.Context, res ResourceID, id LockID, m Mode) error {
	return d.srv.Downgrade(res, id, m)
}

// recFlusher records FlushForCancel calls; an optional gate blocks each
// flush until released, simulating slow data flushing.
type recFlusher struct {
	mu    sync.Mutex
	gate  chan struct{}
	calls []flushCall
}

type flushCall struct {
	res ResourceID
	rng extent.Extent
	sn  extent.SN
}

func (f *recFlusher) FlushForCancel(_ context.Context, res ResourceID, rng extent.Extent, sn extent.SN) error {
	f.mu.Lock()
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	f.mu.Lock()
	f.calls = append(f.calls, flushCall{res, rng, sn})
	f.mu.Unlock()
	return nil
}

func (f *recFlusher) setGate(gate chan struct{}) {
	f.mu.Lock()
	f.gate = gate
	f.mu.Unlock()
}

func (f *recFlusher) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func newHarness(t *testing.T, policy Policy, nclients int) *harness {
	t.Helper()
	h := &harness{
		flusher: &recFlusher{},
		clients: make(map[ClientID]*LockClient),
	}
	h.srv = NewServer(policy, nil)
	h.srv.SetNotifier(NotifierFunc(func(_ context.Context, rv Revocation) {
		h.mu.Lock()
		gate := h.revokeGate
		h.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if c, ok := h.clients[rv.Client]; ok {
			c.OnRevoke(rv.Resource, rv.Lock)
		}
		h.srv.RevokeAck(rv.Resource, rv.Lock)
	}))
	router := func(ResourceID) ServerConn { return directConn{h.srv} }
	for i := 1; i <= nclients; i++ {
		id := ClientID(i)
		h.clients[id] = NewLockClient(id, policy, router, h.flusher)
	}
	return h
}

func (h *harness) client(i int) *LockClient { return h.clients[ClientID(i)] }

func mustAcquire(t *testing.T, c *LockClient, res ResourceID, m Mode, rng extent.Extent) *Handle {
	t.Helper()
	hd, err := c.Acquire(context.Background(), res, m, rng)
	if err != nil {
		t.Fatalf("Acquire(%v, %v): %v", m, rng, err)
	}
	return hd
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestGrantNoConflictExpandsToEOF(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	hd := mustAcquire(t, h.client(1), 1, NBW, extent.New(100, 200))
	if hd.Range() != extent.New(100, extent.Inf) {
		t.Fatalf("range = %v, want [100, EOF)", hd.Range())
	}
	if hd.State() != Granted {
		t.Fatalf("state = %v", hd.State())
	}
	h.client(1).Unlock(hd)
}

func TestWriteGrantsGetUniqueIncreasingSNs(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
	sn0 := a.SN()
	h.client(1).Unlock(a)
	b, err := h.client(2).Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
	if err != nil {
		t.Fatal(err)
	}
	if b.SN() != sn0+1 {
		t.Fatalf("second write SN = %d, want %d", b.SN(), sn0+1)
	}
	h.client(2).Unlock(b)
}

func TestReadGrantDoesNotConsumeSN(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	r1 := mustAcquire(t, h.client(1), 1, PR, extent.New(0, 10))
	h.client(1).Unlock(r1)
	// Force the PR lock out so the next write starts fresh.
	h.client(1).ReleaseAll(context.Background())
	w := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, 10))
	if w.SN() != r1.SN() {
		t.Fatalf("PR consumed an SN: read sn=%d write sn=%d", r1.SN(), w.SN())
	}
	h.client(1).Unlock(w)
}

func TestExpansionCappedByConflictingLock(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(1000, 2000))
	if a.Range().Start != 1000 || a.Range().End != extent.Inf {
		t.Fatalf("first lock range = %v", a.Range())
	}
	b := mustAcquire(t, h.client(2), 1, NBW, extent.New(0, 100))
	if b.Range() != extent.New(0, 1000) {
		t.Fatalf("second lock range = %v, want [0, 1000)", b.Range())
	}
	h.client(1).Unlock(a)
	h.client(2).Unlock(b)
}

// TestEarlyGrant is the heart of §III-A1: a conflicting NBW request is
// granted as soon as the holder acks the revocation, before its data
// flushing completes.
func TestEarlyGrant(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	gate := make(chan struct{})
	h.flusher.setGate(gate)

	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
	h.client(1).Unlock(a) // cached, idle

	// B's request conflicts; A's flush is gated so a normal grant would
	// block forever — early grant must complete anyway.
	done := make(chan *Handle, 1)
	go func() {
		b, err := h.client(2).Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
		if err == nil {
			done <- b
		}
	}()
	select {
	case b := <-done:
		if b.SN() != a.SN()+1 {
			t.Fatalf("grant order wrong: a.sn=%d b.sn=%d", a.SN(), b.SN())
		}
		if h.flusher.count() != 0 {
			t.Fatal("flush completed before early grant check")
		}
		close(gate)
		h.client(2).Unlock(b)
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("early grant did not happen: conflicting NBW blocked on data flushing")
	}
	if h.srv.Stats.EarlyGrants.Load() == 0 {
		t.Fatal("EarlyGrants stat not incremented")
	}
}

// TestNormalGrantWaitsForFlush: the legacy write lock must not be
// granted until the previous holder has flushed and released.
func TestNormalGrantWaitsForFlush(t *testing.T) {
	h := newHarness(t, Basic(), 2)
	gate := make(chan struct{})
	h.flusher.setGate(gate)

	a := mustAcquire(t, h.client(1), 1, LW, extent.New(0, extent.Inf))
	h.client(1).Unlock(a)

	done := make(chan struct{})
	go func() {
		b, err := h.client(2).Acquire(context.Background(), 1, LW, extent.New(0, extent.Inf))
		if err == nil {
			h.client(2).Unlock(b)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("legacy write lock granted before holder flushed (early grant leaked into DLM-basic)")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("grant never happened after flush")
	}
	if h.flusher.count() == 0 {
		t.Fatal("no flush recorded")
	}
}

// TestReadWaitsForWriterFlush: PR against a canceling NBW is still
// incompatible — readers must observe flushed data (Table II).
func TestReadWaitsForWriterFlush(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	gate := make(chan struct{})
	h.flusher.setGate(gate)

	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
	h.client(1).Unlock(a)

	done := make(chan struct{})
	go func() {
		r, err := h.client(2).Acquire(context.Background(), 1, PR, extent.New(0, 100))
		if err == nil {
			h.client(2).Unlock(r)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("PR granted while conflicting write unflushed")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("PR never granted after flush")
	}
}

// TestEarlyRevocation: with conflicting requests queued, grants are
// tagged CANCELING and the server never waits for revocation replies.
func TestEarlyRevocation(t *testing.T) {
	h := newHarness(t, SeqDLM(), 3)
	gate := make(chan struct{})
	h.flusher.setGate(gate)
	defer close(gate)
	revGate := make(chan struct{})
	h.setRevokeGate(revGate)

	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
	h.client(1).Unlock(a)

	// Two conflicting requests queue up while A's revocation is held
	// back. Once it is delivered, B is granted; because C's request is
	// queued and B's range cannot expand, B's grant is tagged CANCELING.
	type result struct {
		hd  *Handle
		cli *LockClient
	}
	results := make(chan result, 2)
	for i := 2; i <= 3; i++ {
		go func(i int) {
			cli := h.client(i)
			hd, err := cli.Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
			if err == nil {
				results <- result{hd, cli}
			}
		}(i)
	}
	waitFor(t, "both requests queued", func() bool { return h.srv.QueueLen(1) == 2 })
	close(revGate)
	r1 := <-results
	r2 := <-results
	if r1.hd.State() != Canceling && r2.hd.State() != Canceling {
		t.Fatalf("no contended grant tagged CANCELING (early revocation): %v, %v",
			r1.hd.State(), r2.hd.State())
	}
	if h.srv.Stats.EarlyRevocations.Load() == 0 {
		t.Fatal("EarlyRevocations stat not incremented")
	}
	r1.cli.Unlock(r1.hd)
	r2.cli.Unlock(r2.hd)
}

// TestEarlyRevocationOfContendedGrant: a write grant that could not be
// expanded goes out CANCELING when it is an early grant over another
// client's CANCELING write lock, though no request is queued: the range
// is under write-write contention. The requester's own CANCELING lock
// does not count, nor does a grant that expanded, and DLM-basic never
// grants early.
func TestEarlyRevocationOfContendedGrant(t *testing.T) {
	blk := func(lo, hi int64) extent.Extent { return extent.New(lo*4096, hi*4096) }
	// held drives client 1's write lock over blocks [0,2) to CANCELING
	// and returns it. With a reader mode given, client 3 first holds a
	// reader over [2,4), so no write lock on [0,2) can expand past it.
	held := func(t *testing.T, s *Server, write, read Mode) Grant {
		if read != ModeNone {
			mustLock(t, s, Request{Resource: 1, Client: 3, Mode: read, Range: blk(2, 4)})
		}
		g := mustLock(t, s, Request{Resource: 1, Client: 1, Mode: write, Range: blk(0, 2)})
		s.RevokeAck(1, g.LockID)
		return g
	}
	for _, tc := range []struct {
		name   string
		policy Policy
		grant  func(t *testing.T, s *Server) Grant
		want   State
	}{
		{"contended and unexpandable", SeqDLM(), func(t *testing.T, s *Server) Grant {
			held(t, s, NBW, PR)
			return mustLock(t, s, Request{Resource: 1, Client: 2, Mode: NBW, Range: blk(0, 2)})
		}, Canceling},
		{"own CANCELING lock only", SeqDLM(), func(t *testing.T, s *Server) Grant {
			held(t, s, NBW, PR)
			return mustLock(t, s, Request{Resource: 1, Client: 1, Mode: NBW, Range: blk(0, 2)})
		}, Granted},
		{"early grant that expands", SeqDLM(), func(t *testing.T, s *Server) Grant {
			held(t, s, NBW, ModeNone)
			return mustLock(t, s, Request{Resource: 1, Client: 2, Mode: NBW, Range: blk(2, 4)})
		}, Granted},
		{"DLM-basic", Basic(), func(t *testing.T, s *Server) Grant {
			g := held(t, s, LW, LR)
			ch := lockAsync(t, s, context.Background(), Request{Resource: 1, Client: 2, Mode: LW, Range: blk(0, 2)})
			s.Release(1, g.LockID)
			r := recv(t, ch)
			if r.err != nil {
				t.Fatal(r.err)
			}
			return r.g
		}, Granted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(tc.policy, NotifierFunc(func(context.Context, Revocation) {}))
			defer s.Shutdown()
			g := tc.grant(t, s)
			if g.State != tc.want {
				t.Errorf("grant %v over %v: state %v, want %v", g.Mode, g.Range, g.State, tc.want)
			}
			wantEarly := int64(0)
			if tc.want == Canceling {
				wantEarly = 1
			}
			if got := s.Stats.EarlyRevocations.Load(); got != wantEarly {
				t.Errorf("EarlyRevocations = %d, want %d", got, wantEarly)
			}
			// Every SeqDLM case is an early grant; DLM-basic has none.
			if got, want := s.Stats.EarlyGrants.Load(), int64(btoi(tc.policy.EarlyGrant)); got != want {
				t.Errorf("EarlyGrants = %d, want %d", got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExpansionStopsAtOthersCancelingWrite: a write grant grows up to,
// not over, another client's CANCELING write lock. Early grant admits
// the requested blocks beside such a lock, but a range grown onto its
// block would hold a block nobody requests again. Capped at the end of
// the request, a contended grant goes out pre-revoked. The requester's
// own CANCELING lock does not cap, nor does one that overlaps the
// request from before its start.
func TestExpansionStopsAtOthersCancelingWrite(t *testing.T) {
	blk := func(lo, hi int64) extent.Extent { return extent.New(lo*4096, hi*4096) }
	canceling := func(t *testing.T, s *Server, c ClientID, rng extent.Extent) {
		s.RevokeAck(1, mustLock(t, s, Request{Resource: 1, Client: c, Mode: NBW, Range: rng}).LockID)
	}
	for _, tc := range []struct {
		name      string
		setup     func(t *testing.T, s *Server)
		req       extent.Extent
		wantRange extent.Extent
		want      State
	}{
		// Client 1's lock grows to EOF and caps client 3's at block 2;
		// client 2's request is an early grant over client 3's lock.
		{"another client's lock past the end", func(t *testing.T, s *Server) {
			canceling(t, s, 1, blk(2, 4))
			canceling(t, s, 3, blk(0, 2))
		}, blk(0, 2), blk(0, 2), Canceling},
		{"own lock past the end", func(t *testing.T, s *Server) {
			canceling(t, s, 2, blk(2, 4))
			canceling(t, s, 3, blk(0, 2))
		}, blk(0, 2), extent.New(0, extent.Inf), Granted},
		{"lock overlapping from before the start", func(t *testing.T, s *Server) {
			canceling(t, s, 1, blk(0, 2))
		}, blk(2, 4), extent.New(blk(2, 4).Start, extent.Inf), Granted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(SeqDLM(), NotifierFunc(func(context.Context, Revocation) {}))
			defer s.Shutdown()
			tc.setup(t, s)
			g := mustLock(t, s, Request{Resource: 1, Client: 2, Mode: NBW, Range: tc.req})
			if g.Range != tc.wantRange || g.State != tc.want {
				t.Errorf("NBW over %v: granted %v %v, want %v %v", tc.req, g.Range, g.State, tc.wantRange, tc.want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLockUpgrading reproduces Fig. 11: a PR request conflicting with
// the same client's NBW is upgraded to PW and the NBW is absorbed.
func TestLockUpgrading(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	w := mustAcquire(t, c, 1, NBW, extent.New(0, extent.Inf))
	c.Unlock(w)

	r := mustAcquire(t, c, 1, PR, extent.New(0, 100))
	if r.Mode() != PW {
		t.Fatalf("upgraded mode = %v, want PW", r.Mode())
	}
	if c.CachedLocks(1) != 1 {
		t.Fatalf("cached locks = %d, want 1 (absorbed)", c.CachedLocks(1))
	}
	if h.srv.Stats.Upgrades.Load() != 1 {
		t.Fatalf("Upgrades = %d, want 1", h.srv.Stats.Upgrades.Load())
	}
	if h.srv.Stats.Revocations.Load() != 0 {
		t.Fatal("upgrading must not revoke the same client's lock")
	}
	// Subsequent reads and writes reuse the PW lock.
	r2 := mustAcquire(t, c, 1, PR, extent.New(0, 10))
	w2 := mustAcquire(t, c, 1, NBW, extent.New(50, 60))
	if r2 != r || w2 != r {
		t.Fatal("PW lock not reused from cache")
	}
	c.Unlock(r)
	c.Unlock(r2)
	c.Unlock(w2)
}

// TestUpgradeReclaimsOtherReaders: upgrading to PW first reclaims PR
// locks cached by other clients.
func TestUpgradeReclaimsOtherReaders(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	// Client 2 takes a PR first so client 1's later NBW cannot expand
	// over it and both coexist.
	b := mustAcquire(t, h.client(2), 1, PR, extent.New(20, 30))
	h.client(2).Unlock(b)
	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, 10))
	if a.Range().End != 20 {
		t.Fatalf("NBW range = %v, want capped at client 2's PR", a.Range())
	}
	h.client(1).Unlock(a)

	// Client 1 reads [0, 30): same-client conflict with its NBW upgrades
	// the request to PW, which now conflicts with client 2's PR.
	r := mustAcquire(t, h.client(1), 1, PR, extent.New(0, 30))
	if r.Mode() != PW {
		t.Fatalf("mode = %v, want PW", r.Mode())
	}
	if h.client(2).Stats.Revocations.Load() == 0 {
		t.Fatal("other client's PR was not reclaimed")
	}
	h.client(1).Unlock(r)
}

// TestLockDowngrading reproduces Fig. 12: a canceling BW downgrades to
// NBW, letting a conflicting BW request early grant before the flush.
func TestLockDowngrading(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	gate := make(chan struct{})
	h.flusher.setGate(gate)

	a := mustAcquire(t, h.client(1), 1, BW, extent.New(0, extent.Inf))

	done := make(chan *Handle, 1)
	go func() {
		b, err := h.client(2).Acquire(context.Background(), 1, BW, extent.New(0, extent.Inf))
		if err == nil {
			done <- b
		}
	}()
	// While A holds the BW lock, B must wait (blocking feature).
	select {
	case <-done:
		t.Fatal("BW granted while another BW held (atomicity broken)")
	case <-time.After(100 * time.Millisecond):
	}
	// A unlocks; the cancel path downgrades BW→NBW, and B is granted
	// before A's gated flush finishes.
	h.client(1).Unlock(a)
	select {
	case b := <-done:
		if h.flusher.count() != 0 {
			t.Fatal("B waited for A's flush despite downgrade")
		}
		close(gate)
		h.client(2).Unlock(b)
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("BW request never granted after downgrade")
	}
	if h.srv.Stats.Downgrades.Load() == 0 {
		t.Fatal("Downgrades stat not incremented")
	}
}

// TestDowngradeDisabledBlocks: without conversion, a canceling BW keeps
// blocking until release (the BW−D ablation of Fig. 19b).
func TestDowngradeDisabledBlocks(t *testing.T) {
	p := SeqDLM()
	p.Conversion = false
	h := newHarness(t, p, 2)
	gate := make(chan struct{})
	h.flusher.setGate(gate)

	a := mustAcquire(t, h.client(1), 1, BW, extent.New(0, extent.Inf))
	done := make(chan struct{})
	go func() {
		b, err := h.client(2).Acquire(context.Background(), 1, BW, extent.New(0, extent.Inf))
		if err == nil {
			h.client(2).Unlock(b)
		}
		close(done)
	}()
	h.client(1).Unlock(a)
	select {
	case <-done:
		t.Fatal("BW granted before flush with conversion disabled")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("grant never arrived")
	}
}

// upgradingConn asks the server for PW whenever its client asks for PR,
// as a server-side upgrade does when it absorbs a lock the client has
// not installed: the client then holds a PW it has only read under. It
// records each downgrade and how many flushes preceded it.
type upgradingConn struct {
	directConn
	flusher *recFlusher
	mu      sync.Mutex
	downs   []string
}

func (u *upgradingConn) Lock(ctx context.Context, req Request) (Grant, error) {
	if req.Mode == PR {
		req.Mode = PW
	}
	return u.directConn.Lock(ctx, req)
}

func (u *upgradingConn) Downgrade(ctx context.Context, res ResourceID, id LockID, m Mode) error {
	u.mu.Lock()
	u.downs = append(u.downs, fmt.Sprintf("%v after %d flushes", m, u.flusher.count()))
	u.mu.Unlock()
	return u.directConn.Downgrade(ctx, res, id, m)
}

// TestPWDowngradesToPRForReaders: a canceling PW held only by readers
// flushes, then downgrades to PR, compatible with waiting PR requests.
func TestPWDowngradesToPRForReaders(t *testing.T) {
	h := newHarness(t, SeqDLM(), 2)
	conn := &upgradingConn{directConn: directConn{h.srv}, flusher: h.flusher}
	c1 := NewLockClient(1, SeqDLM(), func(ResourceID) ServerConn { return conn }, h.flusher)
	h.clients[1] = c1
	hd := mustAcquire(t, c1, 1, PR, extent.New(0, extent.Inf))
	if hd.Mode() != PW {
		t.Fatalf("mode = %v, want PW", hd.Mode())
	}

	gate := make(chan struct{})
	h.flusher.setGate(gate)
	done := make(chan struct{})
	go func() {
		r, err := h.client(2).Acquire(context.Background(), 1, PR, extent.New(0, 10))
		if err == nil {
			h.client(2).Unlock(r)
		}
		close(done)
	}()
	time.Sleep(50 * time.Millisecond) // let the PR request queue and revoke PW
	close(gate)                       // allow the pre-downgrade flush
	c1.Unlock(hd)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("PR not granted after PW→PR downgrade")
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if want := []string{"PR after 1 flushes"}; fmt.Sprint(conn.downs) != fmt.Sprint(want) {
		t.Fatalf("downgrades = %v, want %v", conn.downs, want)
	}
}

func TestDatatypeDisjointSetsDoNotConflict(t *testing.T) {
	h := newHarness(t, Datatype(), 2)
	setA := extent.NewSet(extent.New(0, 10), extent.New(100, 110))
	setB := extent.NewSet(extent.New(10, 20), extent.New(200, 210))
	a, err := h.client(1).AcquireExtents(context.Background(), 1, NBW, setA)
	if err != nil {
		t.Fatal(err)
	}
	// B's set interleaves with A's but never overlaps: must grant
	// immediately even while A holds its lock.
	done := make(chan *Handle, 1)
	go func() {
		b, err := h.client(2).AcquireExtents(context.Background(), 1, NBW, setB)
		if err == nil {
			done <- b
		}
	}()
	select {
	case b := <-done:
		h.client(2).Unlock(b)
	case <-time.After(2 * time.Second):
		t.Fatal("disjoint datatype locks conflicted")
	}
	h.client(1).Unlock(a)
}

func TestDatatypeOverlappingSetsSerialize(t *testing.T) {
	h := newHarness(t, Datatype(), 2)
	gate := make(chan struct{})
	h.flusher.setGate(gate)
	setA := extent.NewSet(extent.New(0, 10), extent.New(100, 110))
	setB := extent.NewSet(extent.New(105, 120))
	a, err := h.client(1).AcquireExtents(context.Background(), 1, NBW, setA)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		b, err := h.client(2).AcquireExtents(context.Background(), 1, NBW, setB)
		if err == nil {
			h.client(2).Unlock(b)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("overlapping datatype locks granted concurrently")
	case <-time.After(100 * time.Millisecond):
	}
	h.client(1).Unlock(a) // datatype policy releases after use
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second datatype lock never granted")
	}
	// Datatype locks are not cached.
	waitFor(t, "lock cache drain", func() bool {
		return h.client(1).CachedLocks(1) == 0 && h.client(2).CachedLocks(1) == 0
	})
}

func TestLustreExpansionCap(t *testing.T) {
	p := Lustre()
	p.LustreCapBytes = 1 << 10 // 1 KB cap for the test
	p.LustreLockThreshold = 4
	h := newHarness(t, p, 1)
	c := h.client(1)
	// Grant more than the threshold; ranges must expand greedily first.
	hd := mustAcquire(t, c, 1, LW, extent.New(0, 16))
	if hd.Range().End != extent.Inf {
		t.Fatalf("pre-threshold expansion = %v, want EOF", hd.Range())
	}
	c.Unlock(hd)
	c.ReleaseAll(context.Background())
	for i := 0; i < 5; i++ {
		hd := mustAcquire(t, c, 1, LW, extent.Span(int64(i*100000), 16))
		c.Unlock(hd)
		c.ReleaseAll(context.Background())
	}
	hd = mustAcquire(t, c, 1, LW, extent.New(1<<20, 1<<20+16))
	if hd.Range().End != 1<<20+1<<10 {
		t.Fatalf("post-threshold expansion = %v, want capped at start+1K", hd.Range())
	}
	c.Unlock(hd)
}

func TestMinSN(t *testing.T) {
	h := newHarness(t, SeqDLM(), 3)
	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(1000, 2000))
	b := mustAcquire(t, h.client(2), 1, NBW, extent.New(0, 500))
	if _, ok := h.srv.MinSN(1, extent.New(5000, 6000)); ok {
		// a's range expanded to [1000, EOF) so this overlaps; adjust
		// expectation: it must report a's SN.
	}
	msn, ok := h.srv.MinSN(1, extent.New(0, extent.Inf))
	if !ok {
		t.Fatal("MinSN found no locks")
	}
	want := a.SN()
	if b.SN() < want {
		want = b.SN()
	}
	if msn != want {
		t.Fatalf("MinSN = %d, want %d", msn, want)
	}
	h.client(1).Unlock(a)
	h.client(2).Unlock(b)
	h.client(1).ReleaseAll(context.Background())
	h.client(2).ReleaseAll(context.Background())
	if _, ok := h.srv.MinSN(1, extent.New(0, extent.Inf)); ok {
		t.Fatal("MinSN reported locks after all released")
	}
}

func TestClientCacheReuse(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	a := mustAcquire(t, c, 1, NBW, extent.New(0, 100))
	c.Unlock(a)
	b := mustAcquire(t, c, 1, NBW, extent.New(200, 300)) // inside expanded range
	if a != b {
		t.Fatal("cached lock not reused")
	}
	if c.CacheHits() != 1 || c.Stats.CacheMisses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d", c.CacheHits(), c.Stats.CacheMisses.Load())
	}
	c.Unlock(b)
}

func TestUnlockWithoutAcquirePanics(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	a := mustAcquire(t, c, 1, NBW, extent.New(0, 100))
	c.Unlock(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unlock did not panic")
		}
	}()
	c.Unlock(a)
}

func TestInvalidRequests(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	if _, err := h.srv.Lock(context.Background(), Request{Resource: 1, Client: 1, Mode: Mode(77), Range: extent.New(0, 1)}); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := h.srv.Lock(context.Background(), Request{Resource: 1, Client: 1, Mode: LW, Range: extent.New(0, 1)}); err == nil {
		t.Fatal("legacy mode accepted by SeqDLM policy")
	}
	if _, err := h.srv.Lock(context.Background(), Request{Resource: 1, Client: 1, Mode: NBW, Range: extent.Extent{}}); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := h.srv.Downgrade(1, 9999, NBW); err == nil {
		t.Fatal("downgrade of unknown lock accepted")
	}
	h.srv.Release(1, 12345)  // unknown release must be a no-op
	h.srv.RevokeAck(1, 4242) // unknown ack must be a no-op
}

func TestFIFOFairnessNoOvertaking(t *testing.T) {
	h := newHarness(t, Basic(), 3)
	gate := make(chan struct{})
	h.flusher.setGate(gate)
	a := mustAcquire(t, h.client(1), 1, LW, extent.New(0, extent.Inf))
	h.client(1).Unlock(a)

	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 2; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hd, err := h.client(i).Acquire(context.Background(), 1, LW, extent.New(0, extent.Inf))
			if err != nil {
				return
			}
			order <- i
			h.client(i).Unlock(hd)
			h.client(i).ReleaseAll(context.Background())
		}(i)
		time.Sleep(50 * time.Millisecond) // ensure queue order 2 then 3
	}
	close(gate)
	wg.Wait()
	first := <-order
	if first != 2 {
		t.Fatalf("client %d overtook client 2 in the queue", first)
	}
}

func TestReleaseAllFlushesEverything(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	for i := 0; i < 3; i++ {
		hd := mustAcquire(t, c, ResourceID(i), NBW, extent.New(0, 100))
		c.Unlock(hd)
	}
	c.ReleaseAll(context.Background())
	if got := h.flusher.count(); got != 3 {
		t.Fatalf("flushed %d locks, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if c.CachedLocks(ResourceID(i)) != 0 {
			t.Fatal("cache not drained")
		}
		if h.srv.GrantedCount(ResourceID(i)) != 0 {
			t.Fatal("server still holds locks")
		}
	}
}

// TestConcurrentStress hammers one resource from many clients in mixed
// modes and verifies global invariants: every acquire completes, write
// SNs are unique, and the server drains cleanly.
func TestConcurrentStress(t *testing.T) {
	for _, pol := range []Policy{SeqDLM(), Basic(), Lustre()} {
		t.Run(pol.Name, func(t *testing.T) {
			const nclients = 8
			const opsEach = 30
			h := newHarness(t, pol, nclients)
			var wg sync.WaitGroup
			var mu sync.Mutex
			writeSNs := make(map[extent.SN]int)
			for i := 1; i <= nclients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					c := h.client(i)
					for op := 0; op < opsEach; op++ {
						start := rng.Int63n(1 << 20)
						e := extent.Span(start, 4096)
						mode := NBW
						if rng.Intn(4) == 0 {
							mode = PR
						}
						hd, err := c.Acquire(context.Background(), 1, mode, e)
						if err != nil {
							t.Errorf("acquire: %v", err)
							return
						}
						if hd.Mode().IsWrite() {
							mu.Lock()
							writeSNs[hd.SN()]++
							mu.Unlock()
						}
						c.Unlock(hd)
					}
				}(i)
			}
			wg.Wait()
			if err := h.srv.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= nclients; i++ {
				h.client(i).ReleaseAll(context.Background())
			}
			waitFor(t, "server drain", func() bool { return h.srv.GrantedCount(1) == 0 })
			// Distinct write locks must have distinct SNs (the same SN
			// appearing twice is fine only via cache reuse of one lock,
			// which we counted once per handle, so duplicates mean two
			// different grants shared an SN).
			snaps := h.srv.Stats.Snapshot()
			if snaps.Grants == 0 {
				t.Fatal("no grants recorded")
			}
		})
	}
}

// TestWriteSNUniqueAcrossGrants verifies the sequencer property directly
// at the server: every write-mode grant returns a distinct SN.
func TestWriteSNUniqueAcrossGrants(t *testing.T) {
	h := newHarness(t, SeqDLM(), 4)
	var mu sync.Mutex
	owner := map[extent.SN]*Handle{}
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := h.client(i)
			for op := 0; op < 25; op++ {
				hd, err := c.Acquire(context.Background(), 1, NBW, extent.New(0, extent.Inf))
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				// Two *distinct* NBW handles must never share an SN —
				// each write-mode grant consumes one.
				mu.Lock()
				if old, ok := owner[hd.SN()]; ok && old != hd {
					t.Errorf("SN %d granted to two different locks", hd.SN())
				}
				owner[hd.SN()] = hd
				mu.Unlock()
				c.Unlock(hd)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i <= 4; i++ {
		h.client(i).ReleaseAll(context.Background())
	}
}

func TestStatsSnapshotSub(t *testing.T) {
	var s Stats
	s.Grants.Add(10)
	s.CancelWaitHist.Record(int64(3 * time.Second))
	a := s.Snapshot()
	s.Grants.Add(5)
	b := s.Snapshot()
	d := b.Sub(a)
	if d.Grants != 5 || d.CancelWait != 0 {
		t.Fatalf("diff = %+v", d)
	}
	if a.CancelWait != 3*time.Second {
		t.Fatalf("CancelWait = %v", a.CancelWait)
	}
}

func TestGrantStateString(t *testing.T) {
	if Granted.String() != "GRANTED" || Canceling.String() != "CANCELING" {
		t.Fatal("state strings wrong")
	}
}

func TestHandleAccessors(t *testing.T) {
	h := newHarness(t, SeqDLM(), 1)
	c := h.client(1)
	hd := mustAcquire(t, c, 7, NBW, extent.New(0, 10))
	if hd.Resource() != 7 || hd.ID() == 0 {
		t.Fatalf("accessors wrong: res=%d id=%d", hd.Resource(), hd.ID())
	}
	select {
	case <-hd.Released():
		t.Fatal("Released closed while held")
	default:
	}
	c.Unlock(hd)
	c.ReleaseAll(context.Background())
	select {
	case <-hd.Released():
	case <-time.After(2 * time.Second):
		t.Fatal("Released never closed")
	}
}

func TestAcquireExtentsEmptySet(t *testing.T) {
	h := newHarness(t, Datatype(), 1)
	if _, err := h.client(1).AcquireExtents(context.Background(), 1, NBW, extent.Set{}); err == nil {
		t.Fatal("empty extent set accepted")
	}
}

func ExampleSelectMode() {
	fmt.Println(SelectMode(true, false, false))
	fmt.Println(SelectMode(false, false, false))
	fmt.Println(SelectMode(false, false, true))
	fmt.Println(SelectMode(false, true, false))
	// Output:
	// PR
	// NBW
	// BW
	// PW
}
