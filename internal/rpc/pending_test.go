package rpc

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccpfs/internal/sim"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/wire"
)

func TestCallTableRegisterTake(t *testing.T) {
	var tab callTable[int]
	if !tab.register(1, 10) {
		t.Fatal("register failed on open table")
	}
	if !tab.register(2, 20) {
		t.Fatal("register failed on open table")
	}
	if n := tab.length(); n != 2 {
		t.Fatalf("length = %d, want 2", n)
	}
	if v, ok := tab.take(1); !ok || v != 10 {
		t.Fatalf("take(1) = %d, %v; want 10, true", v, ok)
	}
	if _, ok := tab.take(1); ok {
		t.Fatal("second take(1) succeeded; entries must be taken exactly once")
	}
	if _, ok := tab.take(99); ok {
		t.Fatal("take of unregistered id succeeded")
	}
	if v, ok := tab.take(2); !ok || v != 20 {
		t.Fatalf("take(2) = %d, %v; want 20, true", v, ok)
	}
	if n := tab.length(); n != 0 {
		t.Fatalf("length = %d after all takes, want 0", n)
	}
}

// TestCallTableCloseDrain: the first closeAndDrain returns every entry,
// in ascending call-ID order whatever order they were registered in,
// and closes the table to later registrations.
func TestCallTableCloseDrain(t *testing.T) {
	var tab callTable[uint64]
	ids := []uint64{41, 7, 1 << 40, 19, 3, 1000, 8, 64, 65, 2}
	for _, id := range ids {
		tab.register(id, id)
	}
	items, first := tab.closeAndDrain()
	if !first {
		t.Fatal("first closeAndDrain reported first=false")
	}
	slices.Sort(ids)
	if !slices.Equal(items, ids) {
		t.Fatalf("drained %v, want every entry in ascending id order %v", items, ids)
	}
	if _, again := tab.closeAndDrain(); again {
		t.Fatal("second closeAndDrain reported first=true")
	}
	if tab.register(12345, 1) {
		t.Fatal("register succeeded on closed table")
	}
	if n := tab.length(); n != 0 {
		t.Fatalf("length = %d after drain, want 0", n)
	}
}

// TestCallTableStress hammers the exactly-one-taker guarantee: many
// producers register entries while takers race to claim them (some via
// the producer itself — the forget path — some via a separate goroutine
// — the complete path) and a closer drains the table mid-run. Every id
// whose registration succeeded must be taken exactly once, by exactly
// one of forget/complete/drain; no id may ever be taken twice. Run with
// -race.
func TestCallTableStress(t *testing.T) {
	const (
		producers = 8
		opsPer    = 3000
	)
	var tab callTable[uint64]
	var nextID atomic.Uint64

	type record struct {
		registered bool
		id         uint64
	}
	attempts := make(chan record, producers*opsPer)
	taken := make(chan uint64, producers*opsPer+16)
	feed := make(chan uint64, 256)

	var consumers sync.WaitGroup
	for c := 0; c < 2; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for id := range feed {
				if v, ok := tab.take(id); ok {
					if v != id {
						t.Errorf("take(%d) returned value %d", id, v)
					}
					taken <- id
				}
			}
		}()
	}

	var prods sync.WaitGroup
	for p := 0; p < producers; p++ {
		prods.Add(1)
		go func() {
			defer prods.Done()
			for i := 0; i < opsPer; i++ {
				id := nextID.Add(1)
				ok := tab.register(id, id)
				attempts <- record{registered: ok, id: id}
				if !ok {
					continue
				}
				// Pseudo-randomly forget half ourselves, hand the rest
				// to the completers.
				if id*0x9E3779B9%2 == 0 {
					if v, tok := tab.take(id); tok {
						if v != id {
							t.Errorf("forget take(%d) returned %d", id, v)
						}
						taken <- id
					}
				} else {
					feed <- id
				}
			}
		}()
	}

	// Close the table while traffic is in full flight.
	time.Sleep(2 * time.Millisecond)
	drained, first := tab.closeAndDrain()
	if !first {
		t.Fatal("closer was not first to close")
	}
	for _, id := range drained {
		taken <- id
	}

	prods.Wait()
	close(feed)
	consumers.Wait()
	close(attempts)
	close(taken)

	registered := make(map[uint64]bool)
	attempted := make(map[uint64]bool)
	for r := range attempts {
		attempted[r.id] = true
		if r.registered {
			registered[r.id] = true
		}
	}
	takenOnce := make(map[uint64]bool)
	for id := range taken {
		if takenOnce[id] {
			t.Fatalf("id %d taken twice", id)
		}
		takenOnce[id] = true
		if !attempted[id] {
			t.Fatalf("id %d taken but never attempted", id)
		}
	}
	for id := range registered {
		if !takenOnce[id] {
			t.Fatalf("id %d registered but never taken (leaked entry)", id)
		}
	}
	if n := tab.length(); n != 0 {
		t.Fatalf("table length = %d after stress, want 0", n)
	}
}

// TestCallCancelCloseInterleaving drives real endpoints through the
// three-way race the pending table must survive: calls completing,
// callers abandoning via context, and the connection closing, all
// concurrently. Every Call must return (no hang), and afterwards the
// pending table must be empty. Run with -race.
func TestCallCancelCloseInterleaving(t *testing.T) {
	net := memnet.New(sim.Hardware{})
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, Options{}, func(ep *Endpoint) {
		ep.Handle(wire.MRelease, func(ctx context.Context, payload []byte) (wire.Msg, error) {
			var req wire.ReleaseRequest
			if err := wire.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			return &wire.Ack{}, nil
		})
	})
	go srv.Serve()
	defer srv.Close()

	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(conn, Options{})
	ep.Start()

	const callers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				ctx := context.Background()
				var cancel context.CancelFunc
				switch (seed + i) % 3 {
				case 0:
					// Abandon race: context that may fire mid-call.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*time.Microsecond)
				case 1:
					// Pre-canceled.
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				var resp wire.Ack
				ep.Call(ctx, wire.MRelease, &wire.ReleaseRequest{}, &resp) // all errors legal here
				if cancel != nil {
					cancel()
				}
			}
		}(c)
	}

	time.Sleep(5 * time.Millisecond)
	ep.Close() // tear down mid-traffic: remaining calls fail with ErrClosed
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("callers hung after close — lost pending entry")
	}

	// Late abandon paths may still be unwinding; the table must converge
	// to empty.
	deadline := time.Now().Add(5 * time.Second)
	for ep.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Pending() = %d after close and quiesce, want 0", ep.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCallCtxCancelSemantics(t *testing.T) {
	base := context.Background()

	// Cancel before Done: waiters get an already-closed channel.
	cc := &callCtx{base: base}
	cc.cancel()
	select {
	case <-cc.Done():
	default:
		t.Fatal("Done() not closed after cancel")
	}
	if cc.Err() != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", cc.Err())
	}

	// Done before cancel: the published channel closes on cancel.
	cc = &callCtx{base: base}
	ch := cc.Done()
	select {
	case <-ch:
		t.Fatal("Done() closed before cancel")
	default:
	}
	if cc.Err() != nil {
		t.Fatalf("Err() = %v before cancel, want nil", cc.Err())
	}
	cc.cancel()
	cc.cancel() // idempotent
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("Done() channel did not close on cancel")
	}
}

// TestCallCtxDoneCancelRace races lazy Done publication against cancel;
// every waiter must observe the close. Run with -race.
func TestCallCtxDoneCancelRace(t *testing.T) {
	for i := 0; i < 2000; i++ {
		cc := &callCtx{base: context.Background()}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-cc.Done()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc.cancel()
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a Done() waiter missed the cancel")
		}
	}
}

// TestCallCtxDelegatesToBase: a handler's context reports the
// endpoint's deadline and values.
func TestCallCtxDelegatesToBase(t *testing.T) {
	type key struct{}
	dl := time.Now().Add(time.Hour)
	base, cancel := context.WithDeadline(context.WithValue(context.Background(), key{}, "v"), dl)
	defer cancel()
	cc := &callCtx{base: base}
	if got, ok := cc.Deadline(); !ok || !got.Equal(dl) {
		t.Fatalf("Deadline() = %v, %v, want %v, true", got, ok, dl)
	}
	if got := cc.Value(key{}); got != "v" {
		t.Fatalf("Value() = %v, want v", got)
	}
}
