package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
	"ccpfs/internal/sim"
)

// TestClusterReaderFanMigrationRace races the reader fan-out path
// against online slot migration: one writer and four readers rotate a
// hot resource (writer displaces the cohort with a gather, the cohort
// re-forms from pre-armed handback leases propagated peer-to-peer)
// while the slot's mastership moves between servers. The freeze must
// force-resolve every broadcast delegation outstanding at the cut — a
// cohort is up to five in-flight delegations at once, not the single
// successor the plain handoff test races — no acquire may be lost or
// fail, writer SNs must stay strictly increasing across both masters,
// and every reader grant must carry the SN order of the writer grant
// it followed. Run under -race in CI.
func TestClusterReaderFanMigrationRace(t *testing.T) {
	const readers = 4
	c := newCluster(t, Options{
		Servers:   2,
		Policy:    dlm.SeqDLM(),
		Partition: true,
		Handoff:   true,
		LeaseTTL:  time.Second,
	})
	cls := newClients(t, c, 1+readers)
	ctx := context.Background()

	hot := dlm.ResourceID(findResourceOwnedBy(t, c, 0, 0))
	slot := partition.SlotOf(uint64(hot))
	rng := extent.New(0, 4096)

	type rec struct {
		id dlm.LockID
		sn extent.SN
	}
	var mu sync.Mutex
	var writerRecs []rec
	var rounds atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer := cls[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			h, err := writer.Locks().Acquire(ctx, hot, dlm.NBW, rng)
			if err != nil {
				t.Errorf("writer acquire failed during migration: %v", err)
				return
			}
			mu.Lock()
			writerRecs = append(writerRecs, rec{h.ID(), h.SN()})
			mu.Unlock()
			writer.Locks().Unlock(h)
			rounds.Add(1)
		}
	}()
	for _, cl := range cls[1:] {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := cl.Locks().Acquire(ctx, hot, dlm.PR, rng)
				if err != nil {
					t.Errorf("reader acquire failed during migration: %v", err)
					return
				}
				cl.Locks().Unlock(h)
			}
		}(cl)
	}

	fanTraffic := func() (gathers, leases int64) {
		for _, s := range c.Servers {
			gathers += s.DLM.Stats.Gathers.Load()
			leases += s.DLM.Stats.LeaseGrants.Load()
		}
		return
	}
	waitProgress := func(minRounds, minGathers int64) {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			g, _ := fanTraffic()
			if rounds.Load() >= minRounds && g >= minGathers {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	migrate := func(from, to int) {
		mctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := c.MigrateSlot(mctx, slot, from, to); err != nil {
			t.Fatalf("migrate slot %d %d->%d: %v", slot, from, to, err)
		}
	}

	// Each migration cuts in with fan delegations demonstrably in
	// flight, so the freeze races whole cohorts, not lone successors.
	waitProgress(5, 2)
	migrate(0, 1)
	waitProgress(12, 5)
	migrate(1, 0)
	waitProgress(20, 8)
	close(stop)
	wg.Wait()

	// Writer grants serialize the rotation: their SNs must never
	// regress across the migration cuts, and a repeated SN is legal only
	// as a cache hit on the same lock (a repeat under a fresh lock ID
	// means the importing master re-issued sequencer state).
	mu.Lock()
	for i := 1; i < len(writerRecs); i++ {
		prev, cur := writerRecs[i-1], writerRecs[i]
		if cur.sn < prev.sn || (cur.sn == prev.sn && cur.id != prev.id) {
			t.Fatalf("writer SN %d (lock %d) after SN %d (lock %d) at round %d",
				cur.sn, cur.id, prev.sn, prev.id, i)
		}
	}
	nRounds := len(writerRecs)
	mu.Unlock()
	if nRounds < 20 {
		t.Fatalf("only %d writer rounds; the rotation starved", nRounds)
	}
	if g, l := fanTraffic(); g < 8 || l < 8 {
		t.Fatalf("gathers=%d leaseGrants=%d across the run; the fan path never engaged", g, l)
	}

	// Drain the clients, then every delegation — including cohorts the
	// freezes force-resolved — must be settled: engines consistent, the
	// slot back home, migrations seen on both servers.
	for _, cl := range cls {
		if err := cl.Shutdown(ctx); err != nil {
			t.Fatalf("client shutdown: %v", err)
		}
	}
	for i, s := range c.Servers {
		if s.DLM.Stats.SlotMigrationsOut.Load() < 1 || s.DLM.Stats.SlotMigrationsIn.Load() < 1 {
			t.Fatalf("server %d migrations in/out = %d/%d, want >= 1 each",
				i, s.DLM.Stats.SlotMigrationsIn.Load(), s.DLM.Stats.SlotMigrationsOut.Load())
		}
		if err := s.DLM.CheckInvariants(); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
	if err := c.Servers[0].DLM.CheckMaster(hot); err != nil {
		t.Fatalf("slot %d not back home on server 0: %v", slot, err)
	}
}

// TestVirtualReaderFanGatherOneRoundTrip pins what displacing a formed
// cohort costs the writer: the server revokes all 64 readers' leases at
// once and their gather parts come back together, so on the Table I
// hardware each steady-state whole-stripe write returns within about
// two round trips. Revocations delivered a few holders at a time cost
// one round trip per wave (94.6 µs with eight at a time).
func TestVirtualReaderFanGatherOneRoundTrip(t *testing.T) {
	const readers, rounds, formed = 64, 8, 1
	const bound = 30 * time.Microsecond
	v := sim.NewVClock(1)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	var lat []time.Duration
	var err error
	v.Run(func() { lat, err = readerFanWriterOps(hw, readers, rounds) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("writer op per round: %v", lat)
	for r := formed; r < rounds; r++ {
		if lat[r] > bound {
			t.Errorf("round %d: writer op took %v with the cohort formed, want <= %v", r, lat[r], bound)
		}
	}
}

// readerFanWriterOps runs rounds of one whole-stripe write followed by
// readers concurrent reads of it, on one server with reader fan-out,
// and returns how long each round's write took.
func readerFanWriterOps(hw sim.Hardware, readers, rounds int) ([]time.Duration, error) {
	c, err := New(Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw, Handoff: true})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cls, err := c.Clients(1+readers, "fan")
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, cl := range cls {
			cl.Close()
		}
	}()
	files := make([]*client.File, len(cls))
	for i, cl := range cls {
		if files[i], err = cl.OpenOrCreate("/fan", 1<<20, 1); err != nil {
			return nil, err
		}
	}
	clk := c.Clock()
	ctx := context.Background()
	wbuf := pattern(1, 64<<10)
	errs := make([]error, readers)
	lat := make([]time.Duration, rounds)
	for r := range lat {
		start := clk.Now()
		if _, err := files[0].WriteAtOpts(ctx, wbuf, 0, client.WriteOptions{Mode: dlm.NBW, LockWholeStripe: true}); err != nil {
			return nil, err
		}
		lat[r] = clk.Since(start)
		grp := sim.NewGroup(clk)
		for i := range errs {
			grp.Go(func() { _, errs[i] = files[1+i].ReadAt(make([]byte, len(wbuf)), 0) })
		}
		grp.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	}
	return lat, nil
}
