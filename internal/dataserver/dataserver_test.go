package dataserver

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/meta"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/storage"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/wire"
)

// testServer starts a server on memnet and returns a connected, started
// client endpoint.
func testServer(t *testing.T, cfg Config) (*Server, *rpc.Endpoint) {
	t.Helper()
	net := memnet.New(sim.Fast())
	l, err := net.Listen("ds")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	srv.Serve(l)
	t.Cleanup(srv.Close)
	conn, err := net.Dial("ds")
	if err != nil {
		t.Fatal(err)
	}
	ep := rpc.NewEndpoint(conn, rpc.Options{})
	ep.Start()
	t.Cleanup(func() { ep.Close() })
	return srv, ep
}

func hello(t *testing.T, ep *rpc.Endpoint, id uint32, bulk bool) {
	t.Helper()
	var rep wire.HelloReply
	err := ep.Call(context.Background(), wire.MHello, &wire.HelloRequest{NodeName: "t", ClientID: id, Bulk: bulk}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ClientID != id {
		t.Fatalf("hello returned id %d, want %d", rep.ClientID, id)
	}
}

func TestHelloRejectsZeroID(t *testing.T) {
	_, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	err := ep.Call(context.Background(), wire.MHello, &wire.HelloRequest{NodeName: "t"}, &wire.HelloReply{})
	if err == nil {
		t.Fatal("zero client ID accepted")
	}
}

func TestLockGrantOverRPC(t *testing.T) {
	_, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	hello(t, ep, 7, false)
	var g wire.LockGrant
	err := ep.Call(context.Background(), wire.MLock, &wire.LockRequest{
		Resource: 1, Client: 7, Mode: uint8(dlm.NBW), Range: extent.New(0, 100),
	}, &g)
	if err != nil {
		t.Fatal(err)
	}
	if g.LockID == 0 || g.Range.End != extent.Inf || dlm.State(g.State) != dlm.Granted {
		t.Fatalf("grant = %+v", g)
	}
	if err := ep.Call(context.Background(), wire.MRelease, &wire.ReleaseRequest{Resource: 1, LockID: g.LockID}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockRejectsWrongModeForPolicy(t *testing.T) {
	_, ep := testServer(t, Config{Policy: dlm.Basic()})
	hello(t, ep, 7, false)
	err := ep.Call(context.Background(), wire.MLock, &wire.LockRequest{
		Resource: 1, Client: 7, Mode: uint8(dlm.NBW), Range: extent.New(0, 100),
	}, &wire.LockGrant{})
	if err == nil {
		t.Fatal("SeqDLM mode accepted by legacy policy")
	}
}

func TestFlushAndReadRoundTrip(t *testing.T) {
	srv, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	hello(t, ep, 7, false)
	data := []byte("hello extent cache")
	err := ep.Call(context.Background(), wire.MFlush, &wire.FlushRequest{
		Resource: 5, Client: 7,
		Blocks: []wire.Block{{Range: extent.Span(100, int64(len(data))), SN: 3, Data: data}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv.FlushedBytes.Load() != int64(len(data)) {
		t.Fatalf("FlushedBytes = %d", srv.FlushedBytes.Load())
	}
	var rep wire.ReadReply
	err = ep.Call(context.Background(), wire.MRead, &wire.ReadRequest{Resource: 5, Range: extent.Span(100, int64(len(data)))}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) != 1 || !bytes.Equal(rep.Blocks[0].Data, data) {
		t.Fatalf("read = %+v", rep)
	}
}

func TestFlushDiscardsStaleData(t *testing.T) {
	srv, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	hello(t, ep, 7, false)
	newer := bytes.Repeat([]byte{9}, 64)
	older := bytes.Repeat([]byte{1}, 64)
	ep.Call(context.Background(), wire.MFlush, &wire.FlushRequest{Resource: 1, Blocks: []wire.Block{
		{Range: extent.Span(0, 64), SN: 9, Data: newer}}}, nil)
	ep.Call(context.Background(), wire.MFlush, &wire.FlushRequest{Resource: 1, Blocks: []wire.Block{
		{Range: extent.Span(0, 64), SN: 2, Data: older}}}, nil)
	if srv.DiscardedBytes.Load() != 64 {
		t.Fatalf("DiscardedBytes = %d, want 64", srv.DiscardedBytes.Load())
	}
	var rep wire.ReadReply
	ep.Call(context.Background(), wire.MRead, &wire.ReadRequest{Resource: 1, Range: extent.Span(0, 64)}, &rep)
	if !bytes.Equal(rep.Blocks[0].Data, newer) {
		t.Fatal("stale flush overwrote newer data on device")
	}
}

func TestFlushRejectsMalformedBlock(t *testing.T) {
	_, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	hello(t, ep, 7, false)
	err := ep.Call(context.Background(), wire.MFlush, &wire.FlushRequest{Resource: 1, Blocks: []wire.Block{
		{Range: extent.Span(0, 100), SN: 1, Data: []byte("short")}}}, nil)
	if err == nil {
		t.Fatal("mismatched block length accepted")
	}
}

// TestReadValidation: an unbounded read range is refused, and so is one
// that would return more than MaxReadBytes below the stripe's end; an
// empty range, or one wholly past the end however long, returns the
// stripe's end alone.
func TestReadValidation(t *testing.T) {
	srv, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	hello(t, ep, 7, false)
	for _, rng := range []extent.Extent{{}, {Start: 0, End: MaxReadBytes + 1}} {
		var rep wire.ReadReply
		if err := ep.Call(context.Background(), wire.MRead, &wire.ReadRequest{Resource: 2, Range: rng}, &rep); err != nil || rep.End != 0 || len(rep.Blocks) != 0 {
			t.Fatalf("read %v of a never-written stripe: %+v, %v", rng, rep, err)
		}
	}
	// Stripe 1 ends past MaxReadBytes (a truncate extends it over zeros).
	if err := srv.Truncate(&wire.TruncateRequest{Resource: 1, Size: MaxReadBytes + 1, SN: 1}); err != nil {
		t.Fatal(err)
	}
	for _, rng := range []extent.Extent{
		{Start: 0, End: extent.Inf},
		{Start: 0, End: MaxReadBytes + 1},
	} {
		if err := ep.Call(context.Background(), wire.MRead, &wire.ReadRequest{Resource: 1, Range: rng}, &wire.ReadReply{}); err == nil {
			t.Fatalf("read range %v accepted", rng)
		}
	}
}

// TestRevocationToVanishedClientForceReleases: when the lock holder's
// connection is gone, the server acks and force-releases so waiters are
// never wedged on a dead client.
func TestRevocationToVanishedClientForceReleases(t *testing.T) {
	net := memnet.New(sim.Fast())
	l, _ := net.Listen("ds")
	srv := New(Config{Policy: dlm.SeqDLM()})
	srv.Serve(l)
	defer srv.Close()

	// Client 1 takes a lock, then disconnects without releasing.
	conn1, _ := net.Dial("ds")
	ep1 := rpc.NewEndpoint(conn1, rpc.Options{})
	ep1.Start()
	hello(t, ep1, 1, false)
	var g wire.LockGrant
	if err := ep1.Call(context.Background(), wire.MLock, &wire.LockRequest{
		Resource: 1, Client: 1, Mode: uint8(dlm.NBW), Range: extent.New(0, extent.Inf),
	}, &g); err != nil {
		t.Fatal(err)
	}
	ep1.Close()
	time.Sleep(20 * time.Millisecond) // let the server drop the endpoint

	// Client 2's conflicting request must still be granted.
	conn2, _ := net.Dial("ds")
	ep2 := rpc.NewEndpoint(conn2, rpc.Options{})
	ep2.Start()
	defer ep2.Close()
	hello(t, ep2, 2, false)
	done := make(chan error, 1)
	go func() {
		done <- ep2.Call(context.Background(), wire.MLock, &wire.LockRequest{
			Resource: 1, Client: 2, Mode: uint8(dlm.NBW), Range: extent.New(0, extent.Inf),
		}, &wire.LockGrant{})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lock request wedged behind a vanished holder")
	}
}

// TestBulkConnectionNotUsedForRevocations: a client whose only
// registered connection is bulk must be treated as unreachable for
// callbacks (force-release), not called back over the bulk conn.
func TestBulkConnectionNotUsedForRevocations(t *testing.T) {
	net := memnet.New(sim.Fast())
	l, _ := net.Listen("ds")
	srv := New(Config{Policy: dlm.SeqDLM()})
	srv.Serve(l)
	defer srv.Close()

	conn, _ := net.Dial("ds")
	ep := rpc.NewEndpoint(conn, rpc.Options{})
	// No MRevokeBatch handler registered: a revocation over this conn would
	// error out. Register as bulk-only.
	ep.Start()
	defer ep.Close()
	hello(t, ep, 1, true)
	var g wire.LockGrant
	if err := ep.Call(context.Background(), wire.MLock, &wire.LockRequest{
		Resource: 1, Client: 1, Mode: uint8(dlm.NBW), Range: extent.New(0, extent.Inf),
	}, &g); err != nil {
		t.Fatal(err)
	}
	// A second client conflicts; the server must force-release client
	// 1's lock (no control conn) and grant.
	conn2, _ := net.Dial("ds")
	ep2 := rpc.NewEndpoint(conn2, rpc.Options{})
	ep2.Start()
	defer ep2.Close()
	hello(t, ep2, 2, false)
	done := make(chan error, 1)
	go func() {
		done <- ep2.Call(context.Background(), wire.MLock, &wire.LockRequest{
			Resource: 1, Client: 2, Mode: uint8(dlm.NBW), Range: extent.New(0, extent.Inf),
		}, &wire.LockGrant{})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request wedged behind bulk-only holder")
	}
}

func TestMetaHandlers(t *testing.T) {
	_, ep := testServer(t, Config{Policy: dlm.SeqDLM(), Meta: meta.NewService()})
	hello(t, ep, 7, false)

	var f wire.FileReply
	if err := ep.Call(context.Background(), wire.MCreate, &wire.CreateRequest{Path: "/a", StripeSize: 4096, StripeCount: 2}, &f); err != nil {
		t.Fatal(err)
	}
	if f.FID == 0 || f.StripeCount != 2 {
		t.Fatalf("create = %+v", f)
	}
	if err := ep.Call(context.Background(), wire.MCreate, &wire.CreateRequest{Path: "/a", StripeSize: 4096, StripeCount: 2}, &f); err == nil {
		t.Fatal("duplicate create accepted")
	}
	var g wire.FileReply
	if err := ep.Call(context.Background(), wire.MOpen, &wire.OpenRequest{Path: "/a"}, &g); err != nil || g.FID != f.FID {
		t.Fatalf("open = %+v, %v", g, err)
	}
	if err := ep.Call(context.Background(), wire.MRemove, &wire.OpenRequest{Path: "/a"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := ep.Call(context.Background(), wire.MOpen, &wire.OpenRequest{Path: "/a"}, &g); err == nil {
		t.Fatal("open after remove succeeded")
	}
}

func TestMetaNotHostedHere(t *testing.T) {
	_, ep := testServer(t, Config{Policy: dlm.SeqDLM()})
	hello(t, ep, 7, false)
	err := ep.Call(context.Background(), wire.MCreate, &wire.CreateRequest{Path: "/a", StripeSize: 4096, StripeCount: 1}, &wire.FileReply{})
	if err == nil {
		t.Fatal("meta call served by a non-meta server")
	}
}

func TestExtentLogConfigured(t *testing.T) {
	srv, ep := testServer(t, Config{Policy: dlm.SeqDLM(), ExtentLog: true})
	hello(t, ep, 7, false)
	data := bytes.Repeat([]byte{1}, 32)
	ep.Call(context.Background(), wire.MFlush, &wire.FlushRequest{Resource: 3, Blocks: []wire.Block{
		{Range: extent.Span(0, 32), SN: 1, Data: data}}}, nil)
	if len(srv.Cache.Log(3)) == 0 {
		t.Fatal("extent log empty despite ExtentLog=true")
	}
}

// TestRestartRebuildsExtentCacheFromDurableLog simulates a real server
// restart: a new Server over the same data directory and extent-log
// directory must reconstruct the extent cache, so post-restart stale
// flushes are still discarded.
func TestRestartRebuildsExtentCacheFromDurableLog(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: dlm.SeqDLM(), Store: store, ExtentLog: true, ExtentLogDir: dir}

	srv, ep := testServer(t, cfg)
	hello(t, ep, 7, false)
	newer := bytes.Repeat([]byte{9}, 64)
	if err := ep.Call(context.Background(), wire.MFlush, &wire.FlushRequest{Resource: 1, Blocks: []wire.Block{
		{Range: extent.Span(0, 64), SN: 9, Data: newer}}}, nil); err != nil {
		t.Fatal(err)
	}
	if log := srv.Cache.Log(1); len(log) != 0 {
		t.Fatalf("in-memory extent log beside the durable one: %v", log)
	}
	srv.Close() // syncs and closes the durable log
	store.Close()

	// "New process": fresh store handle, fresh server, same directories.
	store2, err := storage.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg.Store = store2
	net2 := memnet.New(sim.Fast())
	l2, err := net2.Listen("ds2")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(cfg)
	srv2.Serve(l2)
	defer srv2.Close()
	conn2, err := net2.Dial("ds2")
	if err != nil {
		t.Fatal(err)
	}
	ep2 := rpc.NewEndpoint(conn2, rpc.Options{})
	ep2.Start()
	defer ep2.Close()
	hello(t, ep2, 7, false)

	// A straggler flush with an older SN must STILL be discarded — only
	// possible if the extent cache was rebuilt from the durable log.
	older := bytes.Repeat([]byte{1}, 64)
	if err := ep2.Call(context.Background(), wire.MFlush, &wire.FlushRequest{Resource: 1, Blocks: []wire.Block{
		{Range: extent.Span(0, 64), SN: 2, Data: older}}}, nil); err != nil {
		t.Fatal(err)
	}
	if srv2.DiscardedBytes.Load() != 64 {
		t.Fatalf("stale flush not discarded after restart: discarded=%d", srv2.DiscardedBytes.Load())
	}
	var rep wire.ReadReply
	if err := ep2.Call(context.Background(), wire.MRead, &wire.ReadRequest{Resource: 1, Range: extent.Span(0, 64)}, &rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Blocks[0].Data, newer) {
		t.Fatal("pre-restart data lost or overwritten by stale flush")
	}
}
