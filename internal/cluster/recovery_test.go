package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extcache"
	"ccpfs/internal/extent"
	"ccpfs/internal/meta"
)

// TestServerRecoveryEndToEnd drives the full §IV-C2 flow over the real
// RPC path: clients hold locks with dirty data, the data server's DLM
// crashes (state wiped), the extent log rebuilds a fresh extent cache,
// Recover() gathers lock records from the connected clients and
// restores them, and IO continues correctly afterwards.
func TestServerRecoveryEndToEnd(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM(), ExtentLog: true})
	cls := newClients(t, c, 2)
	srv := c.Servers[0]

	f0, err := cls[0].Create("/rec", 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Client 0 writes and flushes some data (populating the extent log);
	// client 1 also writes, leaving its lock cached and data dirty.
	data0 := pattern(1, 40_000)
	if _, err := f0.WriteAt(data0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f0.Fsync(); err != nil {
		t.Fatal(err)
	}
	f1, err := cls[1].Open("/rec")
	if err != nil {
		t.Fatal(err)
	}
	data1 := pattern(2, 40_000)
	if _, err := f1.WriteAt(data1, 40_000); err != nil {
		t.Fatal(err)
	}

	rid := uint64(f0.Resource(0))
	liveSN, _ := srv.Cache.MaxSN(rid, extent.New(0, 40_000))
	log := srv.Cache.Log(rid)
	if len(log) == 0 {
		t.Fatal("extent log empty before crash")
	}

	// --- crash: the DLM and extent cache lose all state.
	srv.DLM.Reset()
	srv.Cache.Replay(rid, nil) // wiped
	if srv.DLM.GrantedCount(f0.Resource(0)) != 0 {
		t.Fatal("reset incomplete")
	}

	// --- recovery: replay the log, gather lock records from clients.
	srv.Cache.Replay(rid, log)
	if err := srv.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}

	if got := srv.DLM.GrantedCount(f0.Resource(0)); got == 0 {
		t.Fatal("no locks restored")
	}
	if sn, ok := srv.Cache.MaxSN(rid, extent.New(0, 40_000)); !ok || sn != liveSN {
		t.Fatalf("replayed extent cache SN = %d, want %d", sn, liveSN)
	}

	// --- life goes on: client 1's dirty data flushes under its restored
	// lock when a reader forces it, and both regions read back intact.
	got := make([]byte, 40_000)
	if _, err := f0.ReadAt(got, 40_000); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data1) {
		t.Fatal("client 1's post-recovery flush corrupted")
	}
	if _, err := f0.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data0) {
		t.Fatal("pre-crash flushed data lost")
	}
}

// TestRecoverResolvesInFlightTransfer crashes the lock server
// mid-handoff: A holds a stamped lock it owes B but is still using, and
// B is parked on a transfer that cannot start. Recover must drop A's
// handed-off lock from the replay (A will never release it through the
// server) and force-resolve B's delegated grant with an activation.
// The reclaim timer is pushed out of reach, so only the restore can
// unpark B.
func TestRecoverResolvesInFlightTransfer(t *testing.T) {
	pol := dlm.SeqDLM()
	pol.HandoffReclaimInterval = time.Hour
	c := newCluster(t, Options{Servers: 1, Policy: pol, Handoff: true})
	cls := newClients(t, c, 2)
	a, b := cls[0].Locks(), cls[1].Locks()
	srv := c.Servers[0]
	ctx := context.Background()
	f, err := cls[0].Create("/handoff", 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := f.Resource(0)
	rng := extent.New(0, 4096)

	ha, err := a.Acquire(ctx, res, dlm.NBW, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A failure below must not leave a handle in use: closing its
	// client would wait for it forever.
	var hb *dlm.Handle
	t.Cleanup(func() {
		if ha != nil {
			a.Unlock(ha)
		}
		if hb != nil {
			b.Unlock(hb)
		}
	})
	type result struct {
		h   *dlm.Handle
		err error
	}
	bDone := make(chan result, 1)
	go func() {
		h, err := b.Acquire(ctx, res, dlm.NBW, rng)
		bDone <- result{h, err}
	}()
	waitFor(t, "a handoff stamped with its transfer outstanding", func() bool {
		var handed, delegated bool
		for _, r := range append(a.Export(nil), b.Export(nil)...) {
			handed = handed || r.HandedOff
			delegated = delegated || r.Delegated
		}
		return handed && delegated
	})

	srv.DLM.Reset()
	if err := srv.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-bDone:
		if r.err != nil {
			t.Fatalf("successor acquire failed after recovery: %v", r.err)
		}
		hb = r.h
	case <-time.After(10 * time.Second):
		t.Fatal("successor still parked after recovery: delegation not force-resolved")
	}
	if got := srv.DLM.GrantedCount(res); got != 1 {
		t.Fatalf("GrantedCount = %d after recovery, want 1 (successor only)", got)
	}
	if err := srv.DLM.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}

	// A's late transfer is a duplicate B drops; both then release
	// through the recovered server and the resource makes progress.
	a.Unlock(ha)
	ha = nil
	snB := hb.SN()
	b.Unlock(hb)
	hb = nil
	if err := a.ReleaseAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.ReleaseAll(ctx); err != nil {
		t.Fatal(err)
	}
	h2, err := a.Acquire(ctx, res, dlm.NBW, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h2.SN() <= snB {
		t.Fatalf("post-recovery SN %d not above the successor's %d", h2.SN(), snB)
	}
	a.Unlock(h2)
}

// storeReleasedWrites has A and B alternate three 4 KiB writes each at
// offset 0 of a one-stripe file. B fsyncs, then A reads the range, so
// B's write lock is revoked and released: the storing server's extent
// cache now holds SNs that no client's lock records. It returns the
// newest of them.
func storeReleasedWrites(t *testing.T, cache *extcache.Cache, fa, fb *client.File) extent.SN {
	t.Helper()
	for k := range 3 {
		if _, err := fa.WriteAt(pattern(byte(2*k+1), 4096), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fb.WriteAt(pattern(byte(2*k+2), 4096), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Fsync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := fa.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(6, 4096)) {
		t.Fatal("B's last write does not read back before the crash")
	}
	sn, ok := cache.MaxSN(uint64(fa.Resource(0)), extent.New(0, 4096))
	if !ok {
		t.Fatal("the extent cache holds no SN for the written range")
	}
	return sn
}

// checkNewWriteLands has B write new bytes at offset 0 and fsync, then
// checks that A reads them back and that the storing server's extent
// cache recorded them above stored.
func checkNewWriteLands(t *testing.T, cache *extcache.Cache, fa, fb *client.File, stored extent.SN) {
	t.Helper()
	want := pattern(0x5a, 4096)
	if _, err := fb.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := fb.Fsync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := fa.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	sn, _ := cache.MaxSN(uint64(fa.Resource(0)), extent.New(0, 4096))
	if !bytes.Equal(got, want) {
		t.Fatalf("a write fsynced after recovery reads back as the old bytes (SN before %d, now %d)", stored, sn)
	}
	if sn <= stored {
		t.Fatalf("the extent cache reads SN %d after the new write, not above %d", sn, stored)
	}
}

// TestCrashRecoveryResumesAboveStoredSN: after a full crash, the stripe's
// only replayed lock is A's read lock, while the extent cache holds the
// SN of B's released write. The recovered sequencer must resume above
// that SN, or B's next write is discarded as stale and A reads the old
// bytes.
func TestCrashRecoveryResumesAboveStoredSN(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM(), ExtentLog: true})
	cls := newClients(t, c, 2)
	srv := c.Servers[0]
	fa, err := cls[0].Create("/sn", 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := cls[1].Open("/sn")
	if err != nil {
		t.Fatal(err)
	}
	stored := storeReleasedWrites(t, srv.Cache, fa, fb)
	rid := uint64(fa.Resource(0))
	log := srv.Cache.Log(rid)

	srv.DLM.Reset()
	srv.Cache.Replay(rid, nil)
	srv.Cache.Replay(rid, log)
	if err := srv.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkNewWriteLands(t, srv.Cache, fa, fb, stored)
}

// TestTakeoverResumesAboveStoredSN is the same sequence across a lease
// takeover: the stripe is mastered by the killed server and stored on
// a live one, whose extent cache keeps the SN of B's released write.
func TestTakeoverResumesAboveStoredSN(t *testing.T) {
	c := newCluster(t, Options{Servers: 4, Policy: dlm.SeqDLM(), Partition: true, LeaseTTL: 300 * time.Millisecond})
	cls := newClients(t, c, 2)
	const victim = 1
	var fa *client.File
	var name string
	store := -1
	for i := 0; store < 0; i++ {
		if i == 1000 {
			t.Fatal("no file whose stripe server 1 masters and another server stores")
		}
		name = fmt.Sprintf("/sn-%d", i)
		f, err := cls[0].Create(name, 64<<10, 1)
		if err != nil {
			t.Fatal(err)
		}
		rid := uint64(f.Resource(0))
		if m, ok := c.lockMasterFor(rid); ok && m == victim {
			if st := meta.PlaceStripe(rid, len(c.Servers)); st != victim {
				fa, store = f, st
			}
		}
	}
	fb, err := cls[1].Open(name)
	if err != nil {
		t.Fatal(err)
	}
	cache := c.Servers[store].Cache
	stored := storeReleasedWrites(t, cache, fa, fb)

	c.KillServer(victim)
	rid := uint64(fa.Resource(0))
	waitFor(t, "a takeover of the killed master's slot", func() bool {
		m, ok := c.lockMasterFor(rid)
		return ok && m != victim
	})
	checkNewWriteLands(t, cache, fa, fb, stored)
}

// TestExtentLogRebuildMatchesLiveCache replays a stripe's extent log
// into a fresh cache and compares against the live one across the whole
// written range — recovery must reconstruct ordering state exactly.
func TestExtentLogRebuildMatchesLiveCache(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM(), ExtentLog: true})
	cls := newClients(t, c, 3)
	if _, err := cls[0].Create("/log", 1<<20, 1); err != nil {
		t.Fatal(err)
	}
	// Conflicting unaligned writes from three clients create a messy,
	// multi-SN extent cache.
	for k := 0; k < 6; k++ {
		for i, cl := range cls {
			f, err := cl.Open("/log")
			if err != nil {
				t.Fatal(err)
			}
			off := int64(k*3+i) * 5000
			if _, err := f.WriteAt(pattern(byte(i+1), 6000), off); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, cl := range cls {
		cl.Locks().ReleaseAll(context.Background())
	}

	srv := c.Servers[0]
	f, _ := cls[0].Open("/log")
	rid := uint64(f.Resource(0))
	rebuilt := extcache.New(0, false)
	rebuilt.Replay(rid, srv.Cache.Log(rid))
	for off := int64(0); off < 120_000; off += 1000 {
		want, okW := srv.Cache.MaxSN(rid, extent.Span(off, 1000))
		got, okG := rebuilt.MaxSN(rid, extent.Span(off, 1000))
		if okW != okG || want != got {
			t.Fatalf("offset %d: rebuilt SN %d/%v, live %d/%v", off, got, okG, want, okW)
		}
	}
}
