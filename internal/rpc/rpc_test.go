package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/wire"
)

// newPair returns connected client endpoint and a server whose endpoints
// are configured by setup.
func newPair(t *testing.T, setup func(*Endpoint)) (*Endpoint, *Server) {
	t.Helper()
	return newPairHW(t, sim.Fast(), setup)
}

func newPairHW(t *testing.T, hw sim.Hardware, setup func(*Endpoint)) (*Endpoint, *Server) {
	t.Helper()
	net := memnet.New(hw)
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, Options{}, setup)
	go srv.Serve()
	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewEndpoint(conn, Options{})
	cli.Start()
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli, srv
}

func bg() context.Context { return context.Background() }

func TestCallRoundTrip(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MHello, func(_ context.Context, p []byte) (wire.Msg, error) {
			var req wire.HelloRequest
			if err := wire.Unmarshal(p, &req); err != nil {
				return nil, err
			}
			return &wire.HelloReply{ClientID: req.ClientID + 1}, nil
		})
	})
	var rep wire.HelloReply
	if err := cli.Call(bg(), wire.MHello, &wire.HelloRequest{NodeName: "c", ClientID: 41}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ClientID != 42 {
		t.Fatalf("ClientID = %d, want 42", rep.ClientID)
	}
}

func TestRemoteError(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MOpen, func(_ context.Context, p []byte) (wire.Msg, error) {
			return nil, errors.New("no such file")
		})
	})
	err := cli.Call(bg(), wire.MOpen, &wire.OpenRequest{Path: "/x"}, &wire.FileReply{})
	var we *wire.Error
	if !errors.As(err, &we) || we.Msg != "no such file" {
		t.Fatalf("err = %v, want wire.Error(no such file)", err)
	}
}

func TestTypedErrorCodeSurvivesWire(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MLock, func(_ context.Context, p []byte) (wire.Msg, error) {
			return nil, wire.ErrShuttingDown
		})
		ep.Handle(wire.MRelease, func(_ context.Context, p []byte) (wire.Msg, error) {
			return nil, wire.Errorf(wire.CodeNotOwner, "lock 9 is not yours")
		})
	})
	err := cli.Call(bg(), wire.MLock, &wire.LockRequest{}, nil)
	if !errors.Is(err, wire.ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown across the wire", err)
	}
	err = cli.Call(bg(), wire.MRelease, &wire.ReleaseRequest{}, nil)
	if !errors.Is(err, wire.ErrNotOwner) || wire.CodeOf(err) != wire.CodeNotOwner {
		t.Fatalf("err = %v (code %v), want CodeNotOwner", err, wire.CodeOf(err))
	}
}

func TestUnknownMethod(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {})
	err := cli.Call(bg(), wire.MRead, &wire.ReadRequest{}, nil)
	if err == nil {
		t.Fatal("call to unregistered method succeeded")
	}
	if wire.CodeOf(err) != wire.CodeInvalid {
		t.Fatalf("unknown method error code = %v, want CodeInvalid", wire.CodeOf(err))
	}
}

func TestConcurrentCalls(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MHello, func(_ context.Context, p []byte) (wire.Msg, error) {
			var req wire.HelloRequest
			if err := wire.Unmarshal(p, &req); err != nil {
				return nil, err
			}
			return &wire.HelloReply{ClientID: req.ClientID * 2}, nil
		})
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i uint32) {
			defer wg.Done()
			var rep wire.HelloReply
			if err := cli.Call(bg(), wire.MHello, &wire.HelloRequest{ClientID: i}, &rep); err != nil {
				errs <- err
				return
			}
			if rep.ClientID != i*2 {
				errs <- fmt.Errorf("call %d: got %d", i, rep.ClientID)
			}
		}(uint32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBlockedHandlerDoesNotStallOthers(t *testing.T) {
	release := make(chan struct{})
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MLock, func(_ context.Context, p []byte) (wire.Msg, error) {
			<-release // simulates a lock request waiting for conflict resolution
			return &wire.Ack{}, nil
		})
		ep.Handle(wire.MHello, func(_ context.Context, p []byte) (wire.Msg, error) {
			return &wire.HelloReply{}, nil
		})
	})
	slow := make(chan error, 1)
	go func() {
		slow <- cli.Call(bg(), wire.MLock, &wire.LockRequest{}, nil)
	}()
	// The fast call must complete while the slow one is still blocked.
	done := make(chan error, 1)
	go func() { done <- cli.Call(bg(), wire.MHello, &wire.HelloRequest{}, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fast call stalled behind blocked handler")
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

func TestServerCallbackToClient(t *testing.T) {
	// Server calls MRevokeBatch back into the client over the same
	// connection while handling the client's request — the revocation
	// pattern.
	revoked := make(chan uint64, 1)
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MLock, func(ctx context.Context, p []byte) (wire.Msg, error) {
			var ack wire.RevokeBatchAck
			req := &wire.RevokeBatch{Entries: []wire.RevokeEntry{{Resource: 3, LockID: 7}}}
			if err := ep.Call(ctx, wire.MRevokeBatch, req, &ack); err != nil {
				return nil, err
			}
			if len(ack.Acked) != 1 || ack.Acked[0].LockID != 7 {
				return nil, wire.Errorf(wire.CodeInvalid, "revocation ack = %+v", ack.Acked)
			}
			return &wire.Ack{}, nil
		})
	})
	cli.Handle(wire.MRevokeBatch, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.RevokeBatch
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		revoked <- req.Entries[0].LockID
		return &wire.RevokeBatchAck{Acked: req.Entries}, nil
	})
	if err := cli.Call(bg(), wire.MLock, &wire.LockRequest{}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-revoked:
		if id != 7 {
			t.Fatalf("revoked lock %d, want 7", id)
		}
	default:
		t.Fatal("callback did not reach client")
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {})
	cli.Close()
	time.Sleep(10 * time.Millisecond)
	if err := cli.Call(bg(), wire.MHello, &wire.HelloRequest{}, nil); err == nil {
		t.Fatal("call on closed endpoint succeeded")
	}
}

func TestPendingCallsFailOnPeerClose(t *testing.T) {
	started := make(chan struct{})
	var srvEp *Endpoint
	var mu sync.Mutex
	cli, srv := newPair(t, func(ep *Endpoint) {
		mu.Lock()
		srvEp = ep
		mu.Unlock()
		ep.Handle(wire.MLock, func(ctx context.Context, p []byte) (wire.Msg, error) {
			close(started)
			<-ctx.Done() // aborts when the endpoint tears down
			return nil, ctx.Err()
		})
	})
	errc := make(chan error, 1)
	go func() {
		errc <- cli.Call(bg(), wire.MLock, &wire.LockRequest{}, nil)
	}()
	<-started
	mu.Lock()
	srvEp.Close()
	mu.Unlock()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pending call survived peer close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not failed after peer close")
	}
	srv.Close()
}

func TestOnCloseRuns(t *testing.T) {
	closed := make(chan struct{})
	net := memnet.New(sim.Fast())
	l, _ := net.Listen("s")
	srv := NewServer(l, Options{}, func(ep *Endpoint) {})
	go srv.Serve()
	conn, err := net.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewEndpoint(conn, Options{OnClose: func(*Endpoint) { close(closed) }})
	cli.Start()
	cli.Close()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("OnClose never ran")
	}
	srv.Close()
}

func TestEndpointTag(t *testing.T) {
	var ep Endpoint
	ep.Tag.Store("session-7")
	if got := ep.Tag.Load(); got != "session-7" {
		t.Fatalf("Tag = %v", got)
	}
}

// TestCancelBlockedCall: a call whose handler never replies must return
// promptly when its context is canceled, with no pending entry left
// behind, and the connection must remain usable for later calls. Run
// with simulated latency so cancellation races real in-flight delivery.
func TestCancelBlockedCall(t *testing.T) {
	release := make(chan struct{})
	cli, _ := newPairHW(t, sim.Hardware{RTT: 2 * time.Millisecond}, func(ep *Endpoint) {
		ep.Handle(wire.MLock, func(ctx context.Context, p []byte) (wire.Msg, error) {
			select {
			case <-release:
				return &wire.Ack{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		ep.Handle(wire.MHello, func(_ context.Context, p []byte) (wire.Msg, error) {
			return &wire.HelloReply{}, nil
		})
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cli.Call(ctx, wire.MLock, &wire.LockRequest{}, nil) }()
	time.Sleep(5 * time.Millisecond) // let the request reach the handler
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) || !errors.Is(err, wire.ErrCanceled) {
			t.Fatalf("canceled call error = %v, want context.Canceled/wire.ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled call did not return promptly")
	}
	if n := cli.Pending(); n != 0 {
		t.Fatalf("%d pending entries after cancel, want 0", n)
	}
	// The connection survives a canceled call.
	if err := cli.Call(bg(), wire.MHello, &wire.HelloRequest{}, nil); err != nil {
		t.Fatalf("call after cancel failed: %v", err)
	}
	close(release)
}

// TestCancelPropagatesToHandler: abandoning a call sends a cancel frame
// that fires the handler's per-request context, so server-side work
// (a queued lock waiter, a stalled IO) is withdrawn instead of running
// headless until connection teardown.
func TestCancelPropagatesToHandler(t *testing.T) {
	handlerDone := make(chan error, 1)
	cli, _ := newPairHW(t, sim.Hardware{RTT: 2 * time.Millisecond}, func(ep *Endpoint) {
		ep.Handle(wire.MLock, func(ctx context.Context, p []byte) (wire.Msg, error) {
			select {
			case <-ctx.Done():
				handlerDone <- ctx.Err()
				return nil, wire.FromContext(ctx.Err())
			case <-time.After(10 * time.Second):
				handlerDone <- nil
				return &wire.Ack{}, nil
			}
		})
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- cli.Call(ctx, wire.MLock, &wire.LockRequest{}, nil) }()
	time.Sleep(5 * time.Millisecond) // let the request reach the handler
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call error = %v, want context.Canceled", err)
	}
	select {
	case err := <-handlerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler observed %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel frame never reached the handler")
	}
}

// TestGoWaitCancelBetween: a call started with Go whose context fires
// before its Wait is abandoned as a canceled Call is — Wait returns the
// cancellation, the pending entry is gone and a cancel frame withdraws
// the handler — while a call whose reply arrived before the context
// fired still returns that reply.
func TestGoWaitCancelBetween(t *testing.T) {
	handlerDone := make(chan error, 1)
	started := make(chan struct{})
	cli, _ := newPairHW(t, sim.Hardware{RTT: 2 * time.Millisecond}, func(ep *Endpoint) {
		ep.Handle(wire.MLock, func(ctx context.Context, p []byte) (wire.Msg, error) {
			close(started)
			<-ctx.Done()
			handlerDone <- ctx.Err()
			return nil, wire.FromContext(ctx.Err())
		})
		ep.Handle(wire.MHello, func(_ context.Context, p []byte) (wire.Msg, error) {
			return &wire.HelloReply{ClientID: 7}, nil
		})
	})
	ctx, cancel := context.WithCancel(context.Background())
	p, err := cli.Go(ctx, wire.MLock, &wire.LockRequest{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	if err := p.Wait(ctx, nil); !errors.Is(err, context.Canceled) || !errors.Is(err, wire.ErrCanceled) {
		t.Fatalf("Wait after cancel = %v, want context.Canceled/wire.ErrCanceled", err)
	}
	if n := cli.Pending(); n != 0 {
		t.Fatalf("%d pending entries after cancel, want 0", n)
	}
	select {
	case err := <-handlerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler observed %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel frame never reached the handler")
	}

	ctx, cancel = context.WithCancel(context.Background())
	p, err = cli.Go(ctx, wire.MHello, &wire.HelloRequest{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the reply lands before the cancel
	cancel()
	var rep wire.HelloReply
	if err := p.Wait(ctx, &rep); err != nil || rep.ClientID != 7 {
		t.Fatalf("Wait after reply and cancel = %v (ClientID %d), want the reply", err, rep.ClientID)
	}
}

// TestCallDeadlineExceeded: an expired deadline surfaces as a timeout
// error matching both context.DeadlineExceeded and wire.ErrTimeout.
func TestCallDeadlineExceeded(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MLock, func(ctx context.Context, p []byte) (wire.Msg, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := cli.Call(ctx, wire.MLock, &wire.LockRequest{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("err = %v, want DeadlineExceeded/ErrTimeout", err)
	}
	if n := cli.Pending(); n != 0 {
		t.Fatalf("%d pending entries after deadline, want 0", n)
	}
}

// TestPendingCleanupOnSendFailure: when the transport rejects the send,
// Call must deregister its pending entry so a flaky link cannot grow the
// map without bound.
func TestPendingCleanupOnSendFailure(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {})
	cli.conn.Close() // poison the transport underneath the endpoint
	for i := 0; i < 50; i++ {
		if err := cli.Call(bg(), wire.MHello, &wire.HelloRequest{}, nil); err == nil {
			t.Fatal("call over closed transport succeeded")
		}
	}
	if n := cli.Pending(); n != 0 {
		t.Fatalf("%d pending entries leaked after send failures, want 0", n)
	}
}

// TestPreCanceledCallFailsFast: a context canceled before Call never
// touches the transport and leaves no state behind.
func TestPreCanceledCallFailsFast(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cli.Call(ctx, wire.MHello, &wire.HelloRequest{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := cli.Pending(); n != 0 {
		t.Fatalf("%d pending entries, want 0", n)
	}
}

// TestDrainWaitsForHandlers: Drain returns only after in-flight handlers
// complete, and respects its own context when they do not.
func TestDrainWaitsForHandlers(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var srvEp *Endpoint
	var mu sync.Mutex
	cli, _ := newPair(t, func(ep *Endpoint) {
		mu.Lock()
		srvEp = ep
		mu.Unlock()
		ep.Handle(wire.MLock, func(_ context.Context, p []byte) (wire.Msg, error) {
			started <- struct{}{}
			<-release
			return &wire.Ack{}, nil
		})
	})
	go cli.Call(bg(), wire.MLock, &wire.LockRequest{}, nil)
	<-started
	mu.Lock()
	ep := srvEp
	mu.Unlock()

	// Drain with a short deadline fails while the handler is stuck.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := ep.Drain(ctx)
	cancel()
	if !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("Drain with stuck handler = %v, want ErrTimeout", err)
	}
	close(release)
	if err := ep.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after release = %v", err)
	}
}

// TestServerShutdownDrains: Shutdown completes in-flight handlers before
// closing endpoints — the reply reaches the caller.
func TestServerShutdownDrains(t *testing.T) {
	proceed := make(chan struct{})
	started := make(chan struct{}, 1)
	net := memnet.New(sim.Fast())
	l, _ := net.Listen("s")
	srv := NewServer(l, Options{}, func(ep *Endpoint) {
		ep.Handle(wire.MFlush, func(_ context.Context, p []byte) (wire.Msg, error) {
			started <- struct{}{}
			<-proceed
			return &wire.Ack{}, nil
		})
	})
	go srv.Serve()
	conn, err := net.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewEndpoint(conn, Options{})
	cli.Start()
	defer cli.Close()
	errc := make(chan error, 1)
	go func() { errc <- cli.Call(bg(), wire.MFlush, &wire.FlushRequest{}, &wire.Ack{}) }()
	<-started
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(proceed) // unwedge the in-flight flush while Shutdown drains
	}()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("in-flight call during graceful shutdown = %v", err)
	}
}

// TestServerCloseAcceptRace: closing the server while dials are racing
// the accept loop must not leak endpoint read-loop goroutines. This is
// a goleak-style check: goroutine count returns to baseline.
func TestServerCloseAcceptRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for iter := 0; iter < 50; iter++ {
		net := memnet.New(sim.Fast())
		l, _ := net.Listen("s")
		srv := NewServer(l, Options{}, func(ep *Endpoint) {})
		go srv.Serve()
		var conns []transport.Conn
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if c, err := net.Dial("s"); err == nil {
					mu.Lock()
					conns = append(conns, c)
					mu.Unlock()
				}
			}()
		}
		srv.Close() // races the dials above
		wg.Wait()
		for _, c := range conns {
			c.Close()
		}
	}
	// Give exiting read loops a moment, then compare against baseline
	// with slack for runtime background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

var _ transport.Conn = (transport.Conn)(nil) // interface sanity

// TestPooledReuseStress hammers the pooled fast path — encoder frames,
// reply channels — with concurrent calls, per-call cancellations, and a
// mid-stress Close, under -race in CI. Every completed echo must return
// exactly the payload it sent: a recycled buffer or reply channel that
// leaks between calls shows up as a cross-call payload mismatch (or as
// a race report).
func TestPooledReuseStress(t *testing.T) {
	echo := func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.FlushRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		return &wire.ReadReply{Blocks: req.Blocks}, nil
	}
	cli, _ := newPair(t, func(ep *Endpoint) { ep.Handle(wire.MFlush, echo) })
	const workers = 16
	const callsPer = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, 64+w*17)
			for i := range data {
				data[i] = byte(w)
			}
			req := &wire.FlushRequest{Client: uint32(w), Blocks: []wire.Block{{SN: uint64(w), Data: data}}}
			for i := 0; i < callsPer; i++ {
				ctx := bg()
				var cancel context.CancelFunc
				switch i % 5 {
				case 1:
					// A deadline that usually fires mid-call.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*10*time.Microsecond)
				case 3:
					ctx, cancel = context.WithCancel(ctx)
					go cancel() // racing cancel
				}
				var reply wire.ReadReply
				err := cli.Call(ctx, wire.MFlush, req, &reply)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					continue // canceled/timed out: only integrity of completed calls matters
				}
				if len(reply.Blocks) != 1 || reply.Blocks[0].SN != uint64(w) {
					t.Errorf("worker %d: echo header corrupted: %+v", w, reply.Blocks)
					return
				}
				got := reply.Blocks[0].Data
				if len(got) != len(data) {
					t.Errorf("worker %d: echo length %d, want %d", w, len(got), len(data))
					return
				}
				for j := range got {
					if got[j] != byte(w) {
						t.Errorf("worker %d: byte %d leaked from another call: %d", w, j, got[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Close with no calls in flight, then verify pooled state didn't keep
	// the endpoint artificially alive.
	cli.Close()
	if err := cli.Call(bg(), wire.MFlush, &wire.FlushRequest{}, nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("call after close: %v, want ErrClosed", err)
	}
}

// TestPooledReuseStressWithClose races Close against in-flight pooled
// calls: every call must settle (reply, typed error, or ErrClosed) and
// no pending entry may leak.
func TestPooledReuseStressWithClose(t *testing.T) {
	cli, _ := newPair(t, func(ep *Endpoint) {
		ep.Handle(wire.MRelease, func(context.Context, []byte) (wire.Msg, error) {
			return &wire.Ack{}, nil
		})
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &wire.ReleaseRequest{Resource: 1, LockID: 2}
			for i := 0; i < 200; i++ {
				cli.Call(bg(), wire.MRelease, req, nil)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	cli.Close()
	wg.Wait()
	if n := cli.Pending(); n != 0 {
		cli.pending.mu.Lock()
		ids := slices.Sorted(maps.Keys(cli.pending.m))
		closed := cli.pending.closed
		cli.pending.mu.Unlock()
		t.Fatalf("%d pending entries leaked through close (ids=%v closed=%v)", n, ids, closed)
	}
}

// TestReleasePayloadOnce: a handler that hands its request frame back
// early (twice, even) returns it to the pool once and leaves the
// dispatch goroutine nothing to put back after the reply. Under -race
// the released payload reads as poison.
//
// The frame is 16 KiB, a size class no other test here uses, so after
// the call that class's pool holds only this exchange's buffers. A frame
// put back twice would sit in it twice and two draws would share a
// backing array. (Without -race the check is exact; under -race
// sync.Pool drops some puts at random, so it catches a double put only
// some of the time.)
func TestReleasePayloadOnce(t *testing.T) {
	var srvEP *Endpoint
	var errs []error
	frameCap := 0
	cli, _ := newPair(t, func(ep *Endpoint) {
		srvEP = ep
		ep.Handle(wire.MFlush, func(ctx context.Context, p []byte) (wire.Msg, error) {
			frameCap = cap(ctx.(*callCtx).frame)
			ReleasePayload(ctx)
			if wire.RaceEnabled {
				for i, b := range p {
					if b != 0xDB {
						errs = append(errs, fmt.Errorf("released payload byte %d = %#x, not poisoned", i, b))
						break
					}
				}
			}
			ReleasePayload(ctx)
			if ctx.(*callCtx).frame != nil {
				errs = append(errs, errors.New("frame still held after ReleasePayload"))
			}
			return &wire.Ack{}, nil
		})
	})
	ReleasePayload(bg()) // not a handler's context: ignored

	data := make([]byte, 16<<10)
	for i := range data {
		data[i] = byte(i)
	}
	if err := cli.Call(bg(), wire.MFlush, &wire.FlushRequest{Blocks: []wire.Block{{Data: data}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := srvEP.Drain(bg()); err != nil { // the dispatch goroutine is done
		t.Fatal(err)
	}
	for _, err := range errs {
		t.Error(err)
	}

	seen := make(map[*byte]bool)
	for range 16 {
		b := wire.GetBuf(frameCap)
		if p := &b[0]; seen[p] {
			t.Fatal("the pool handed out one buffer twice: a frame went back more than once")
		} else {
			seen[p] = true
		}
	}
}

// TestTakePayload: a handler that takes its request frame owns it from
// then on — the whole frame, header included, with the payload at its
// end — and the dispatch goroutine puts nothing back, neither after the
// reply nor for a ReleasePayload that follows the take. A second take,
// and a take with a context that is not a handler's, return nil. Under
// -race a frame the dispatch goroutine recycled anyway reads as poison;
// without it, a draw from the frame's pool class would hand it out.
func TestTakePayload(t *testing.T) {
	var srvEP *Endpoint
	var frame, payload []byte
	var errs []error
	cli, _ := newPair(t, func(ep *Endpoint) {
		srvEP = ep
		ep.Handle(wire.MFlush, func(ctx context.Context, p []byte) (wire.Msg, error) {
			frame = TakePayload(ctx)
			payload = p
			if again := TakePayload(ctx); again != nil {
				errs = append(errs, errors.New("a second take returned the frame again"))
			}
			ReleasePayload(ctx) // after a take: nothing to put back
			return &wire.Ack{}, nil
		})
	})
	if TakePayload(bg()) != nil {
		t.Fatal("a context that is not a handler's yielded a frame")
	}

	data := make([]byte, 24<<10)
	for i := range data {
		data[i] = byte(i)
	}
	if err := cli.Call(bg(), wire.MFlush, &wire.FlushRequest{Blocks: []wire.Block{{Data: data}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := srvEP.Drain(bg()); err != nil { // the dispatch goroutine is done
		t.Fatal(err)
	}
	for _, err := range errs {
		t.Error(err)
	}
	if frame == nil {
		t.Fatal("TakePayload returned no frame inside the handler")
	}
	if &frame[len(frame)-1] != &payload[len(payload)-1] || len(frame) != len(payload)+headerLen {
		t.Fatalf("taken frame (%d bytes) does not end in the %d-byte payload after the header", len(frame), len(payload))
	}
	if !bytes.Equal(frame[len(frame)-len(data):], data) {
		t.Fatal("the taken frame was recycled: its payload no longer reads as sent")
	}
	if !wire.RaceEnabled {
		for range 16 {
			if b := wire.GetBuf(cap(frame)); &b[:1][0] == &frame[0] {
				t.Fatal("the pool handed out a taken frame")
			}
		}
	}
	wire.PutBuf(frame)
}
