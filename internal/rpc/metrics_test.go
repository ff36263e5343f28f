package rpc

import (
	"context"
	"testing"
	"time"

	"ccpfs/internal/obs"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/wire"
)

// waitForCount polls an asynchronously-updated instrument until it
// reaches want (counters recorded after the reply frame is sent can
// trail the client's view of the call).
func waitForCount(t *testing.T, what string, want int64, get func() int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := get(); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsRoundTrip drives instrumented endpoints on both sides and
// checks the per-method counters, histograms, in-flight derivation,
// and byte counters move. Sampling is set to 1 so every call is timed
// and the histogram counts are deterministic.
func TestMetricsRoundTrip(t *testing.T) {
	net := memnet.New(sim.Fast())
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srvM := NewMetrics()
	srvM.SetSampleInterval(1)
	srv := NewServer(l, Options{Metrics: srvM}, func(ep *Endpoint) {
		ep.Handle(wire.MHello, func(_ context.Context, p []byte) (wire.Msg, error) {
			var req wire.HelloRequest
			if err := wire.Unmarshal(p, &req); err != nil {
				return nil, err
			}
			return &wire.HelloReply{ClientID: req.ClientID + 1}, nil
		})
		ep.Handle(wire.MRelease, func(_ context.Context, p []byte) (wire.Msg, error) {
			return &wire.Ack{}, nil
		})
	})
	go srv.Serve()
	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	cliM := NewMetrics()
	cliM.SetSampleInterval(1)
	cli := NewEndpoint(conn, Options{Metrics: cliM})
	cli.Start()
	defer func() {
		cli.Close()
		srv.Close()
	}()

	const calls = 10
	for i := 0; i < calls; i++ {
		var rep wire.HelloReply
		if err := cli.Call(context.Background(), wire.MHello, &wire.HelloRequest{NodeName: "c", ClientID: 1}, &rep); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := cli.Call(context.Background(), wire.MRelease, &wire.ReleaseRequest{}, &wire.Ack{}); err != nil {
			t.Fatal(err)
		}
	}

	if got := cliM.Calls(wire.MHello); got != calls {
		t.Fatalf("client Hello calls = %d, want %d", got, calls)
	}
	if got := cliM.CallHist(wire.MHello).Count(); got != calls {
		t.Fatalf("client Hello round trips timed = %d, want %d", got, calls)
	}
	if got := cliM.Calls(wire.MRelease); got != 2 {
		t.Fatalf("client Release calls = %d, want 2", got)
	}
	if got := cliM.CallHist(wire.MRelease).Count(); got != 2 {
		t.Fatalf("client Release round trips timed = %d, want 2", got)
	}
	// Handler runs are counted after the reply frame is sent, so the
	// last increment may still be in flight when the client's Call
	// returns; wait for convergence rather than racing it.
	waitForCount(t, "server Hello handles", calls, func() int64 { return srvM.Handles(wire.MHello) })
	waitForCount(t, "server Hello handles timed", calls, func() int64 { return srvM.HandleHist(wire.MHello).Count() })
	if cliM.BytesOut.Load() == 0 || cliM.BytesIn.Load() == 0 {
		t.Fatalf("client bytes in/out = %d/%d, want > 0", cliM.BytesIn.Load(), cliM.BytesOut.Load())
	}
	if out, in := cliM.InFlight(); out != 0 || in != 0 {
		t.Fatalf("client in-flight not back to zero: out=%d in=%d", out, in)
	}
	// The server's active-table entry is dropped after the reply frame
	// is sent, concurrently with the client processing the reply.
	waitForCount(t, "server in-flight out", 0, func() int64 { out, _ := srvM.InFlight(); return int64(out) })
	waitForCount(t, "server in-flight in", 0, func() int64 { _, in := srvM.InFlight(); return int64(in) })

	// Collector output: only methods with traffic appear, named by the
	// wire method, and two Metrics can feed one snapshot additively.
	s := obs.NewSnapshot()
	cliM.Collect(&s)
	srvM.Collect(&s)
	if h := s.Hist("rpc.call.Hello"); h.Count != calls {
		t.Fatalf("rpc.call.Hello count = %d, want %d", h.Count, calls)
	}
	if h := s.Hist("rpc.handle.Hello"); h.Count != calls {
		t.Fatalf("rpc.handle.Hello count = %d, want %d", h.Count, calls)
	}
	if got := s.Counters["rpc.calls.Hello"]; got != calls {
		t.Fatalf("rpc.calls.Hello = %d, want %d", got, calls)
	}
	if _, ok := s.Histograms["rpc.call.Flush"]; ok {
		t.Fatal("method with no traffic leaked into snapshot")
	}
	if s.Counters["rpc.bytes_out"] != cliM.BytesOut.Load()+srvM.BytesOut.Load() {
		t.Fatal("bytes_out did not accumulate across collectors")
	}
}

// TestMetricsSampling checks the default sampling behavior: counts are
// exact, the first call per method is always timed, and thereafter one
// in every interval is.
func TestMetricsSampling(t *testing.T) {
	net := memnet.New(sim.Fast())
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, Options{}, func(ep *Endpoint) {
		ep.Handle(wire.MRelease, func(_ context.Context, p []byte) (wire.Msg, error) {
			return &wire.Ack{}, nil
		})
	})
	go srv.Serve()
	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	m.SetSampleInterval(8) // pinned so the test is independent of the default
	cli := NewEndpoint(conn, Options{Metrics: m})
	cli.Start()
	defer func() {
		cli.Close()
		srv.Close()
	}()

	const calls = 20 // samples at call 1, 9, 17 → 3
	for i := 0; i < calls; i++ {
		if err := cli.Call(context.Background(), wire.MRelease, &wire.ReleaseRequest{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Calls(wire.MRelease); got != calls {
		t.Fatalf("calls = %d, want %d (counts are exact)", got, calls)
	}
	if got := m.CallHist(wire.MRelease).Count(); got != 3 {
		t.Fatalf("timed samples = %d, want 3 (1st, 9th, 17th)", got)
	}
}
