package dlm

import (
	"context"
	"strings"
	"testing"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
)

// TestTracerEarlyGrantSequence asserts the exact protocol sequence of an
// early-grant round as recorded by the tracer: request → grant (A),
// request (B) → revoke-sent (A) → revoke-ack (A) → grant (B), with B's
// grant arriving before A's release. That is an interleaving, so the
// test runs seeded on the virtual clock: on the wall clock the client's
// asynchronous release could reach the server between RevokeAck's trace
// record and its scan, and Release's own scan would grant B.
func TestTracerEarlyGrantSequence(t *testing.T) {
	v := sim.NewVClock(1)
	clk := sim.Virtual(v)
	h := newHarness(t, SeqDLM(), 2)
	h.srv.SetClock(clk)
	for _, c := range h.clients {
		c.SetClock(clk)
	}
	tr := NewTracer(64)
	h.srv.SetTracer(tr)

	v.Run(func() {
		a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, extent.Inf))
		h.client(1).Unlock(a)
		b := mustAcquire(t, h.client(2), 1, NBW, extent.New(0, extent.Inf))
		h.client(2).Unlock(b)
		h.client(1).ReleaseAll(context.Background())
		h.client(2).ReleaseAll(context.Background())
		for i := 0; h.srv.GrantedCount(1) != 0; i++ {
			if i == 1000 {
				t.Fatalf("locks still granted after %d virtual ms", i)
			}
			clk.Sleep(time.Millisecond)
		}
	})

	kinds := tr.Kinds()
	// Find the index of each milestone.
	idx := func(k EventKind, nth int) int {
		seen := 0
		for i, got := range kinds {
			if got == k {
				seen++
				if seen == nth {
					return i
				}
			}
		}
		return -1
	}
	grantA := idx(EvGrant, 1)
	revoke := idx(EvRevokeSent, 1)
	ack := idx(EvRevokeAck, 1)
	grantB := idx(EvGrant, 2)
	release := idx(EvRelease, 1)
	for name, i := range map[string]int{
		"grantA": grantA, "revoke": revoke, "ack": ack, "grantB": grantB, "release": release,
	} {
		if i < 0 {
			t.Fatalf("missing %s in trace:\n%s", name, tr.Dump())
		}
	}
	if !(grantA < revoke && revoke < ack && ack < grantB) {
		t.Fatalf("protocol order wrong:\n%s", tr.Dump())
	}
	if grantB > release {
		t.Fatalf("early grant did not precede release:\n%s", tr.Dump())
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.record(Event{Kind: EvRequest, Lock: LockID(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 || tr.Total() != 10 {
		t.Fatalf("len=%d total=%d", len(evs), tr.Total())
	}
	// Oldest-first: locks 6,7,8,9.
	for i, e := range evs {
		if e.Lock != LockID(6+i) {
			t.Fatalf("ring order wrong: %v", evs)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.record(Event{})
	if tr.Events() != nil || tr.Total() != 0 || tr.Dump() != "" {
		t.Fatal("nil tracer not inert")
	}
	h := newHarness(t, SeqDLM(), 1)
	// No tracer attached: traffic must work.
	a := mustAcquire(t, h.client(1), 1, NBW, extent.New(0, 10))
	h.client(1).Unlock(a)
}

func TestTracerDumpAndStrings(t *testing.T) {
	tr := NewTracer(8)
	tr.record(Event{Kind: EvGrant, Resource: 1, Client: 2, Lock: 3, Mode: NBW, Range: extent.New(0, 10), SN: 4})
	out := tr.Dump()
	for _, want := range []string{"grant", "res=1", "client=2", "lock=3", "NBW", "sn=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	for k := EvRequest; k <= EvDelegAck; k++ {
		if strings.HasPrefix(k.String(), "event(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if NewTracer(0) == nil {
		t.Fatal("NewTracer(0) must clamp, not fail")
	}
}
