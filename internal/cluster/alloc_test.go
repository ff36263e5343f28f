package cluster

import (
	"context"
	"runtime"
	"testing"

	"ccpfs/internal/client"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// handoffExchangeAllocs is the budget of TestAllocBudgetHandoffPingPong:
// heap allocations per lock exchange of a two-client handoff ping-pong.
// An exchange is the lock round trip end to end: the lock request, the
// revocation callback and its ack, the holder's flush and the
// client-to-client handoff, with their handlers and replies. What is
// left are records that outlive the exchange (the lock, its handle, its
// extent-tree nodes, the handoff stamp), timer and goroutine closures,
// and the messages the rpc layer holds only by interface. It measures
// 18.0-18.2 (74.1 while decoded messages escaped and every per-call
// record was allocated afresh, 19.0-19.3 while a delegated acquire
// waited on a pooled record's channel). The budget sits under 5 % above that,
// the bound the benchmark puts on pingpong's host_allocs_per_op: one
// more allocation per exchange (20.0) fails here as it would there.
const handoffExchangeAllocs = 19.5

// TestAllocBudgetHandoffPingPong bounds what one exchange of the
// paper's two-party conflict costs the host in allocations, measured
// seeded on the virtual clock over 256 exchanges after a warm-up.
func TestAllocBudgetHandoffPingPong(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const warm, exchanges = 64, 256
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	var perExchange float64
	v.Run(func() {
		c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM(), Handoff: true, Hardware: hw})
		cls := newClients(t, c, 2)
		files := make([]*client.File, len(cls))
		for i, cl := range cls {
			f, err := cl.OpenOrCreate("/pingpong", 1<<20, 1)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f
		}
		buf := pattern(1, 64<<10)
		write := func(i int) {
			if _, err := files[i%2].WriteAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < warm; i++ {
			write(i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < exchanges; i++ {
			write(i)
		}
		runtime.ReadMemStats(&m1)
		perExchange = float64(m1.Mallocs-m0.Mallocs) / exchanges
	})
	t.Logf("%.1f allocations per exchange", perExchange)
	if perExchange > handoffExchangeAllocs {
		t.Errorf("%.1f allocations per exchange, budget %.1f", perExchange, handoffExchangeAllocs)
	}
}

// readerFanRoundAllocs is the budget of TestAllocBudgetReaderFanRound:
// heap allocations per reader per round of a 64-reader fan. A round is
// one whole-stripe write, which gathers the readers' leases, and the
// readers' reads, each served by a lease the writer's handback brought
// down the propagation tree, with the transfers, acks and reads that
// carry them. It measures 33.5-33.7 (34.4-34.5 while each reader's wait
// for its lease made a channel of its own). The budget sits under 5 %
// above that, the bound the benchmark puts on readfan's
// host_allocs_per_op, and below the reading with that channel, which
// fails here.
const readerFanRoundAllocs = 34.0

// TestAllocBudgetReaderFanRound bounds what one reader's share of a fan
// round costs the host in allocations, measured seeded on the virtual
// clock over 16 rounds after a warm-up.
func TestAllocBudgetReaderFanRound(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const readers, warm, rounds = 64, 4, 16
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	var perReader float64
	v.Run(func() {
		c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM(), Handoff: true, Hardware: hw})
		cls := newClients(t, c, 1+readers)
		files := make([]*client.File, len(cls))
		bufs := make([][]byte, readers)
		for i, cl := range cls {
			f, err := cl.OpenOrCreate("/fan", 1<<20, 1)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f
		}
		wbuf := pattern(1, 64<<10)
		for i := range bufs {
			bufs[i] = make([]byte, len(wbuf))
		}
		ctx := context.Background()
		round := func() {
			if _, err := files[0].WriteAtOpts(ctx, wbuf, 0, client.WriteOptions{Mode: dlm.NBW, LockWholeStripe: true}); err != nil {
				t.Fatal(err)
			}
			grp := sim.NewGroup(c.Clock())
			for i := range bufs {
				grp.Go(func() {
					if _, err := files[1+i].ReadAt(bufs[i], 0); err != nil {
						t.Error(err)
					}
				})
			}
			grp.Wait()
		}
		for r := 0; r < warm; r++ {
			round()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < rounds; r++ {
			round()
		}
		runtime.ReadMemStats(&m1)
		perReader = float64(m1.Mallocs-m0.Mallocs) / (rounds * readers)
	})
	t.Logf("%.1f allocations per reader per round", perReader)
	if perReader > readerFanRoundAllocs {
		t.Errorf("%.1f allocations per reader per round, budget %.1f", perReader, readerFanRoundAllocs)
	}
}
