package dataserver

import (
	"context"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/wire"
)

// revokeStorm has client 1 cache n disjoint write locks on resource 1
// (the policy grants exactly the range asked for), then client 2 asks
// for the whole resource, which conflicts with every one of them.
// Client 1 answers the revocations with answer, which returns the
// entries to ack. It returns the server and the size of every
// revocation request client 1 received, once client 2 holds its lock.
func revokeStorm(t *testing.T, n int, answer func(ep *rpc.Endpoint, entries []wire.RevokeEntry) []wire.RevokeEntry) (*Server, []int) {
	t.Helper()
	policy := dlm.SeqDLM()
	policy.Expand = dlm.ExpandNone
	net := memnet.New(sim.Fast())
	l, err := net.Listen("ds")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Policy: policy})
	srv.Serve(l)
	t.Cleanup(srv.Close)
	dial := func(id uint32, revoke rpc.Handler) *rpc.Endpoint {
		conn, err := net.Dial("ds")
		if err != nil {
			t.Fatal(err)
		}
		ep := rpc.NewEndpoint(conn, rpc.Options{})
		if revoke != nil {
			ep.Handle(wire.MRevokeBatch, revoke)
		}
		ep.Start()
		t.Cleanup(func() { ep.Close() })
		hello(t, ep, id, false)
		return ep
	}

	var mu sync.Mutex
	var sizes []int
	var ep1 *rpc.Endpoint
	ep1 = dial(1, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.RevokeBatch
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		mu.Lock()
		sizes = append(sizes, len(req.Entries))
		mu.Unlock()
		return &wire.RevokeBatchAck{Acked: answer(ep1, req.Entries)}, nil
	})
	for i := range n {
		var g wire.LockGrant
		if err := ep1.Call(context.Background(), wire.MLock, &wire.LockRequest{
			Resource: 1, Client: 1, Mode: uint8(dlm.NBW), Range: extent.Span(int64(i)*16, 16),
		}, &g); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.DLM.GrantedCount(1); got != n {
		t.Fatalf("client 1 holds %d locks, want %d", got, n)
	}

	ep2 := dial(2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ep2.Call(ctx, wire.MLock, &wire.LockRequest{
		Resource: 1, Client: 2, Mode: uint8(dlm.NBW), Range: extent.New(0, extent.Inf),
	}, &wire.LockGrant{}); err != nil {
		t.Fatalf("conflicting request: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return srv, sizes
}

// waitGranted waits until resource 1 has want unreleased locks: a
// force-release can land just after the grant it enabled.
func waitGranted(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.DLM.GrantedCount(1) != want {
		if time.Now().After(deadline) {
			t.Fatalf("resource 1 has %d unreleased locks, want %d", srv.DLM.GrantedCount(1), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRevocationStormIsOneCall: one conflicting request revokes 600
// locks cached by one client, and the server delivers them as one
// MRevokeBatch call of 600 entries, however many there are. The acked
// locks stay with their holder (CANCELING, until it releases them).
func TestRevocationStormIsOneCall(t *testing.T) {
	const n = 600
	srv, sizes := revokeStorm(t, n, func(_ *rpc.Endpoint, e []wire.RevokeEntry) []wire.RevokeEntry { return e })
	if len(sizes) != 1 || sizes[0] != n {
		t.Fatalf("revocation requests of %v entries, want one of %d", sizes, n)
	}
	if got := srv.rpcMetrics.Calls(wire.MRevokeBatch); got != 1 {
		t.Fatalf("%d MRevokeBatch calls, want 1", got)
	}
	waitGranted(t, srv, n+1)
}

// TestRevocationStormPartialAck: entries the client leaves out of its
// ack are force-released; the acked ones stay with their holder.
func TestRevocationStormPartialAck(t *testing.T) {
	const n, acked = 600, 100
	srv, sizes := revokeStorm(t, n, func(_ *rpc.Endpoint, e []wire.RevokeEntry) []wire.RevokeEntry { return e[:min(acked, len(e))] })
	if len(sizes) != 1 || sizes[0] != n {
		t.Fatalf("revocation requests of %v entries, want one of %d", sizes, n)
	}
	waitGranted(t, srv, acked+1)
}

// TestRevocationStormClientVanishes: a holder that drops its connection
// instead of answering leaves its call failed, and every lock of the
// delivery is force-released, so the waiter is granted.
func TestRevocationStormClientVanishes(t *testing.T) {
	const n = 600
	srv, sizes := revokeStorm(t, n, func(ep *rpc.Endpoint, _ []wire.RevokeEntry) []wire.RevokeEntry {
		ep.Close()
		return nil
	})
	if len(sizes) != 1 || sizes[0] != n {
		t.Fatalf("revocation requests of %v entries, want one of %d", sizes, n)
	}
	if got := srv.rpcMetrics.Calls(wire.MRevokeBatch); got != 1 {
		t.Fatalf("%d MRevokeBatch calls, want 1", got)
	}
	waitGranted(t, srv, 1)
}
