package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"ccpfs/internal/dataserver"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/meta"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport/memnet"
)

// harness starts nservers data servers (server 0 hosting the namespace)
// and builds clients against them, all on hw's clock.
type harness struct {
	t    *testing.T
	net  *memnet.Network
	ns   *meta.Service
	pol  dlm.Policy
	hw   sim.Hardware
	n    int
	next dlm.ClientID
}

func newHarness(t *testing.T, pol dlm.Policy, nservers int) *harness {
	return newHarnessOn(t, pol, nservers, sim.Fast())
}

func newHarnessOn(t *testing.T, pol dlm.Policy, nservers int, hw sim.Hardware) *harness {
	t.Helper()
	h := &harness{t: t, net: memnet.New(hw), ns: meta.NewService(), pol: pol, hw: hw, n: nservers}
	for i := 0; i < nservers; i++ {
		cfg := dataserver.Config{Name: fmt.Sprintf("s%d", i), Policy: pol, Hardware: hw}
		if i == 0 {
			cfg.Meta = h.ns
		}
		l, err := h.net.Listen(fmt.Sprintf("server-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		srv := dataserver.New(cfg)
		srv.Serve(l)
		t.Cleanup(srv.Close)
	}
	return h
}

func (h *harness) client(cfg Config) *Client {
	h.t.Helper()
	h.next++
	if cfg.ID == 0 {
		cfg.ID = h.next
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("c%d", cfg.ID)
	}
	cfg.Policy, cfg.Clock = h.pol, h.hw.Clock
	conns := Conns{}
	for i := 0; i < h.n; i++ {
		conn, err := h.net.Dial(fmt.Sprintf("server-%d", i))
		if err != nil {
			h.t.Fatal(err)
		}
		ep := rpc.NewEndpoint(conn, rpc.Options{Clock: h.hw.Clock})
		conns.Data = append(conns.Data, ep)
		if i == 0 {
			conns.Meta = ep
		}
	}
	cl, err := New(context.Background(), cfg, conns)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(cl.Close)
	return cl
}

func TestNewRejectsZeroID(t *testing.T) {
	if _, err := New(context.Background(), Config{Policy: dlm.SeqDLM()}, Conns{}); err == nil {
		t.Fatal("zero client ID accepted")
	}
}

func TestWriteReadWithoutBulkConns(t *testing.T) {
	// Bulk connections are optional: everything flows over Data conns.
	h := newHarness(t, dlm.SeqDLM(), 2)
	cl := h.client(Config{})
	f, err := cl.Create("/x", 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAA}, 10000)
	if _, err := f.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 100); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
}

func TestArgumentValidation(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	f, err := cl.Create("/v", 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
	if n, err := f.WriteAt(nil, 0); n != 0 || err != nil {
		t.Fatalf("empty write: n=%d err=%v", n, err)
	}
	if err := f.WriteMulti(nil); err != nil {
		t.Fatalf("empty WriteMulti: %v", err)
	}
	if err := f.Truncate(-5); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestFileAccessors(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	f, err := cl.Create("/acc", 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Path() != "/acc" || f.FID() == 0 {
		t.Fatalf("accessors: path=%q fid=%d", f.Path(), f.FID())
	}
	ss, sc := f.Layout()
	if ss != 8192 || sc != 3 {
		t.Fatalf("layout = %d, %d", ss, sc)
	}
	r0, r1 := f.Resource(0), f.Resource(1)
	if r0 == r1 {
		t.Fatal("stripe resources collide")
	}
	fid, stripe := meta.SplitResource(uint64(r1))
	if fid != f.FID() || stripe != 1 {
		t.Fatalf("resource encoding wrong: fid=%d stripe=%d", fid, stripe)
	}
}

func TestLockModeSelection(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 2)
	cl := h.client(Config{})
	f, err := cl.Create("/modes", 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A plain single-stripe write selects NBW (Fig. 10): re-acquiring
	// NBW over the written range must hit the cached grant.
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	hd, err := cl.Locks().Acquire(context.Background(), f.Resource(0), dlm.NBW, extent.New(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if hd.Mode() != dlm.NBW {
		t.Fatalf("single-stripe write used %v, want NBW", hd.Mode())
	}
	cl.Locks().Unlock(hd)

	// A write spanning both stripes selects BW.
	span := make([]byte, 6000)
	if _, err := f.WriteAt(span, 2000); err != nil { // crosses 4096 boundary
		t.Fatal(err)
	}
	hd1, err := cl.Locks().Acquire(context.Background(), f.Resource(1), dlm.NBW, extent.New(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := hd1.Mode(); got != dlm.BW {
		t.Fatalf("spanning write used %v on stripe 1, want BW", got)
	}
	cl.Locks().Unlock(hd1)
}

func TestAppendUsesPW(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	f, err := cl.Create("/app", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	off, err := f.Append([]byte("record-1"))
	if err != nil || off != 0 {
		t.Fatalf("append: off=%d err=%v", off, err)
	}
	hd, err := cl.Locks().Acquire(context.Background(), f.Resource(0), dlm.PR, extent.New(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if hd.Mode() != dlm.PW {
		t.Fatalf("append left mode %v, want PW (implicit read rule)", hd.Mode())
	}
	cl.Locks().Unlock(hd)
	off, err = f.Append([]byte("record-2"))
	if err != nil || off != 8 {
		t.Fatalf("second append: off=%d err=%v", off, err)
	}
}

func TestWriteOptionsForceModeAndWholeStripe(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	f, err := cl.Create("/opts", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAtOpts(context.Background(), []byte("x"), 0, WriteOptions{Mode: dlm.PW, LockWholeStripe: true}); err != nil {
		t.Fatal(err)
	}
	hd, err := cl.Locks().Acquire(context.Background(), f.Resource(0), dlm.PR, extent.New(1<<19, 1<<19+1))
	if err != nil {
		t.Fatal(err)
	}
	// The PW whole-stripe lock covers a PR far beyond the written byte:
	// reuse proves both options took effect.
	if hd.Mode() != dlm.PW || hd.Range() != extent.New(0, extent.Inf) {
		t.Fatalf("lock = %v %v, want whole-stripe PW", hd.Mode(), hd.Range())
	}
	cl.Locks().Unlock(hd)
}

func TestDatatypeLockRangesExact(t *testing.T) {
	h := newHarness(t, dlm.Datatype(), 1)
	cl := h.client(Config{})
	f, err := cl.Create("/dt", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unaligned exact-range locks: no 4 KB rounding for datatype.
	if _, err := f.WriteAt([]byte("abc"), 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if _, err := f.ReadAt(got, 5); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("read %q", got)
	}
}

func TestSizeVisibilityAfterFsync(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	a := h.client(Config{})
	b := h.client(Config{})
	fa, err := a.Create("/size", 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	fa.WriteAt(bytes.Repeat([]byte{1}, 5000), 0)
	if err := fa.Fsync(); err != nil {
		t.Fatal(err)
	}
	fb, err := b.Open("/size")
	if err != nil {
		t.Fatal(err)
	}
	sz, err := fb.Size()
	if err != nil || sz != 5000 {
		t.Fatalf("size = %d, %v", sz, err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	f, _ := cl.Create("/st", 4096, 1)
	f.WriteAt(bytes.Repeat([]byte{1}, 8192), 0)
	f.Fsync()
	if cl.Stats.WriteOps.Load() != 1 {
		t.Fatalf("WriteOps = %d", cl.Stats.WriteOps.Load())
	}
	if cl.Stats.IONs.Load() <= 0 {
		t.Fatal("IONs not recorded")
	}
	if cl.Stats.FlushedBytes.Load() != 8192 {
		t.Fatalf("FlushedBytes = %d", cl.Stats.FlushedBytes.Load())
	}
}

// TestReadYourOwnDirtyWrites is the regression test for a data-loss bug
// found by the page-cache oracle: a read that is only partially covered
// by the cache fetches the whole segment from the server, and that fill
// must not clobber the client's own newer, unflushed bytes with stale
// server data.
func TestReadYourOwnDirtyWrites(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	f, err := cl.Create("/ryow", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Establish server-side content for the whole range, then overwrite
	// a small piece locally WITHOUT flushing.
	base := bytes.Repeat([]byte{0x11}, 64<<10)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	hot := bytes.Repeat([]byte{0xEE}, 100)
	if _, err := f.WriteAt(hot, 1000); err != nil {
		t.Fatal(err)
	}
	// Invalidate part of the clean cache so the next read is partially
	// uncovered and must fetch from the server (which lacks the dirty
	// bytes). The dirty bytes themselves stay cached.
	cl.PageCache().InvalidateUpTo(uint64(f.Resource(0)), extent.New(8192, 32<<10), 1)

	got := make([]byte, 64<<10)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got[1000+i] != 0xEE {
			t.Fatalf("dirty byte %d clobbered by server fill: %x", 1000+i, got[1000+i])
		}
	}
	for _, i := range []int{0, 999, 1100, 9000, 40000} {
		if got[i] != 0x11 {
			t.Fatalf("base byte %d = %x, want 11", i, got[i])
		}
	}
	// The dirty data must still be flushable (it survived the fill).
	if cl.PageCache().DirtyBytes() == 0 {
		t.Fatal("dirty bytes lost")
	}
}

// TestListAndObs: List returns every path in the namespace, and the
// client's metrics registry counts the client's writes.
func TestListAndObs(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	for _, p := range []string{"/b", "/a"} {
		f, err := cl.Create(p, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := cl.List()
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(paths)
	if !slices.Equal(paths, []string{"/a", "/b"}) {
		t.Fatalf("List = %v, want [/a /b]", paths)
	}
	if got := cl.Obs().Snapshot().Gauges["client.write_ops"]; got != 2 {
		t.Fatalf("client.write_ops = %d, want 2", got)
	}
}

// TestPeerRedialedAfterFailure: a handoff whose peer connection fails
// drops that connection, so the next transfer to the peer dials anew.
func TestPeerRedialedAfterFailure(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	dials := 0
	cl.SetPeerDialer(func(dlm.ClientID) (*rpc.Endpoint, error) {
		dials++
		conn, err := h.net.Dial("server-0")
		if err != nil {
			return nil, err
		}
		ep := rpc.NewEndpoint(conn, rpc.Options{})
		ep.Close() // a peer that has gone away
		return ep, nil
	})
	for i := 1; i <= 2; i++ {
		if err := cl.SendTransfer(context.Background(), 9, 1, dlm.Transfer{Lock: 1}); err == nil {
			t.Fatal("handoff over a closed connection succeeded")
		}
		if dials != i {
			t.Fatalf("%d dials after %d failed handoffs, want %d", dials, i, i)
		}
	}
}
