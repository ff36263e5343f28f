package ccpfs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
	"ccpfs/internal/workload"
)

// These tests pin the discrete-event mode's two contracts: the same
// seed reproduces a run byte for byte (every duration, SN, and counter
// — not just "roughly the same numbers"), and a virtual run computes
// the same results as the identical workload on the wall clock. The
// first is what makes virtual experiments diffable across machines and
// CI runs; the second is what makes them trustworthy.

// sameFigure fails t unless a fresh run of the figure at seed
// reproduces the shared one byte for byte: its table and every row.
func sameFigure(t *testing.T, name string, seed int64) *Experiment {
	t.Helper()
	exp1 := figure(t, name, seed)
	exp2, err := runFigure(name, seed)
	if err != nil {
		t.Fatalf("%s (seed %d): %v", name, seed, err)
	}
	if exp1.String() != exp2.String() {
		t.Fatalf("same seed, different output:\n--- run 1\n%s\n--- run 2\n%s", exp1, exp2)
	}
	if len(exp1.Rows) != len(exp2.Rows) {
		t.Fatalf("row count differs: %d vs %d", len(exp1.Rows), len(exp2.Rows))
	}
	for i := range exp1.Rows {
		if exp1.Rows[i] != exp2.Rows[i] {
			t.Fatalf("row %d differs:\n%+v\n%+v", i, exp1.Rows[i], exp2.Rows[i])
		}
	}
	return exp1
}

func TestVirtualPingPongDeterministic(t *testing.T) {
	exp := sameFigure(t, "pingpong", 1)
	// PIO must be a virtual quantity, not a wall measurement: a 64-
	// exchange run over a 40µs-RTT fabric takes real simulated time,
	// which a wall clock on this in-process cluster would never show.
	if exp.Rows[0].PIO <= 0 {
		t.Fatalf("virtual PIO not positive: %v", exp.Rows[0].PIO)
	}
}

// TestVirtualReaderFanDeterministic covers the fan-out path, which
// exercises the gather/lease machinery, peer-to-peer propagation, and
// larger goroutine counts than pingpong.
func TestVirtualReaderFanDeterministic(t *testing.T) {
	sameFigure(t, "readfan", 1)
}

// ppCounts runs a small pingpong workload on c and returns the
// timing-independent outcomes: ops, bytes, and what the data servers
// did with the flushed data (stored, or discarded as stale).
func ppCounts(t *testing.T, c *cluster.Cluster) (ops, bytes, flushed, discarded, superseded int64) {
	t.Helper()
	res, err := workload.RunPingPong(c, workload.PingPongConfig{
		Exchanges:   16,
		WriteSize:   32 << 10,
		StripeSize:  1 << 20,
		StripeCount: 2,
	})
	if err != nil {
		t.Fatalf("pingpong: %v", err)
	}
	return res.Ops, res.Bytes, c.FlushedBytes(), c.DiscardedBytes(), res.Superseded
}

// TestVirtualRealEquivalence runs the identical workload on the wall
// clock and under a virtual clock and asserts the timing-independent
// results agree: the virtual mode must change WHEN things happen, never
// WHAT happens.
func TestVirtualRealEquivalence(t *testing.T) {
	build := func(hw Hardware) *cluster.Cluster {
		c, err := cluster.New(cluster.Options{
			Servers:  1,
			Policy:   dlm.SeqDLM(),
			Hardware: hw,
			Handoff:  true,
		})
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		return c
	}
	hw := BenchHardware()

	realC := build(hw)
	rOps, rBytes, rFlushed, rDiscarded, rSuperseded := ppCounts(t, realC)
	realC.Close()

	var vOps, vBytes, vFlushed, vDiscarded, vSuperseded int64
	v := sim.NewVClock(1)
	hw.Clock = sim.Virtual(v)
	v.Run(func() {
		c := build(hw)
		vOps, vBytes, vFlushed, vDiscarded, vSuperseded = ppCounts(t, c)
		c.Close()
	})

	if rOps != vOps || rBytes != vBytes {
		t.Fatalf("virtual run diverged: real ops=%d bytes=%d, virtual ops=%d bytes=%d",
			rOps, rBytes, vOps, vBytes)
	}
	// The drain accounts for every written byte in both modes. With
	// handoff on, a write-only successor may own the lock before its
	// predecessor's flush lands, and the extent cache then correctly
	// discards the stale block; and the predecessor may win the lock back
	// and overwrite its own block before its deferred flush collects it,
	// which supersedes that block in its page cache. How often either
	// happens is schedule-dependent, so only the sum is fixed.
	if vFlushed+vDiscarded+vSuperseded != vBytes || rFlushed+rDiscarded+rSuperseded != rBytes {
		t.Fatalf("drain accounting: real flushed=%d+discarded=%d+superseded=%d of %d, virtual flushed=%d+discarded=%d+superseded=%d of %d",
			rFlushed, rDiscarded, rSuperseded, rBytes, vFlushed, vDiscarded, vSuperseded, vBytes)
	}
}

// readFanColdStart runs one writer and `readers` readers on a fresh
// delegating cluster: a cold round (nothing delegated yet, so the first
// reader takes the writer's lock by handoff and the rest block behind
// it) and then `steady` rounds of the settled fan rotation. It checks
// what demand-driven delegation acks promise — the blocked readers are
// released by one solicited ack instead of the owner's flush timer, and
// the settled rotation never solicits — and returns a rendering of
// every number it looked at, for the determinism diff.
func readFanColdStart(hw Hardware, readers, steady int) (string, error) {
	const size = 16 << 10
	c, err := cluster.New(cluster.Options{
		Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw, Handoff: true, ReaderFanout: true,
	})
	if err != nil {
		return "", err
	}
	defer c.Close()
	tr := dlm.NewTracer(256)
	c.Servers[0].DLM.SetTracer(tr)
	clients, err := c.Clients(1+readers, "cold")
	if err != nil {
		return "", err
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	files := make([]*client.File, len(clients))
	for i, cl := range clients {
		if files[i], err = cl.OpenOrCreate("/coldstart", 1<<20, 1); err != nil {
			return "", err
		}
	}

	clk := c.Clock()
	ctx := context.Background()
	wbuf := make([]byte, size)
	round := func(r int) error {
		for i := range wbuf {
			wbuf[i] = byte(r + i)
		}
		if _, err := files[0].WriteAtOpts(ctx, wbuf, 0, client.WriteOptions{Mode: dlm.NBW, LockWholeStripe: true}); err != nil {
			return err
		}
		var mu sync.Mutex
		var bad error
		grp := sim.NewGroup(clk)
		for i := 1; i <= readers; i++ {
			grp.Go(func() {
				got := make([]byte, size)
				_, err := files[i].ReadAt(got, 0)
				if err == nil || err == io.EOF {
					if bytes.Equal(got, wbuf) {
						return
					}
					err = fmt.Errorf("round %d: reader %d read a stale block", r, i)
				}
				mu.Lock()
				bad = err
				mu.Unlock()
			})
		}
		grp.Wait()
		return bad
	}

	if err := round(0); err != nil {
		return "", err
	}
	cold := c.DLMStatsBreakdown()
	if n := cold.Total.AckSolicits; n != 1 {
		return "", fmt.Errorf("cold round: %d ack solicitations, want exactly 1", n)
	}
	if max := time.Duration(cold.GrantWait.Max); max >= 60*time.Microsecond {
		return "", fmt.Errorf("cold round: max grant wait %v, want < 60µs (a reader waited on the ack flush timer, or the ack queued behind the readers it unblocks)", max)
	}
	if tr.Total() > 256 {
		return "", fmt.Errorf("cold round: %d trace events overflow the tracer", tr.Total())
	}
	if err := coldAckAhead(tr.Events(), readers); err != nil {
		return "", fmt.Errorf("cold round: %v\n%s", err, tr.Dump())
	}
	for r := 1; r <= steady; r++ {
		if err := round(r); err != nil {
			return "", err
		}
	}
	all := c.DLMStatsBreakdown()
	d := all.Total.Sub(cold.Total)
	perReader := float64(d.LockOps) / float64(steady*readers)
	if d.AckSolicits != 0 || perReader > 0.25 {
		return "", fmt.Errorf("steady rotation: %d ack solicitations (want 0), %.3f server RPCs/reader (want <= 0.25)",
			d.AckSolicits, perReader)
	}
	if all.Total.HandoffReclaims != 0 {
		return "", fmt.Errorf("%d handoff reclaims", all.Total.HandoffReclaims)
	}
	var acked int64
	for _, cl := range clients {
		acked += cl.Locks().Stats.SolicitedAcks.Load()
	}
	if acked != 1 {
		return "", fmt.Errorf("%d solicited ack flushes client-side, want 1", acked)
	}
	return fmt.Sprintf("cold: max grant wait %v, lock ops %d; steady: lock ops %d, gathers %d, lease grants %d; now %v",
		time.Duration(cold.GrantWait.Max), cold.Total.LockOps, d.LockOps, d.Gathers, d.LeaseGrants, clk.Now().UnixNano()), nil
}

// coldAckAhead checks the cold round's trace: the one solicited
// delegation ack is traced as a deleg-ack by the solicited owner, every
// blocked reader is granted only after it, and it was admitted ahead of
// the reader requests still queued at the lock server, each of which is
// then granted as it is admitted.
func coldAckAhead(evs []dlm.Event, readers int) error {
	solicit, ack := -1, -1
	for i, e := range evs {
		switch e.Kind {
		case dlm.EvAckSolicit:
			solicit = i
		case dlm.EvDelegAck:
			if ack >= 0 {
				return fmt.Errorf("two delegation acks")
			}
			ack = i
		}
	}
	if solicit < 0 || ack < 0 {
		return fmt.Errorf("solicitation at %d, delegation ack at %d: want both", solicit, ack)
	}
	s, a := evs[solicit], evs[ack]
	if a.Lock != s.Succ || a.Client != s.SuccClient {
		return fmt.Errorf("ack of lock %d by client %d, solicited %d@client%d", a.Lock, a.Client, s.Succ, s.SuccClient)
	}
	var grants, after int
	for i, e := range evs {
		if e.Kind == dlm.EvGrant && e.Mode == dlm.PR {
			grants++
			if i > solicit && i < ack {
				return fmt.Errorf("client %d granted between the solicitation and the ack", e.Client)
			}
		}
		if e.Kind == dlm.EvRequest && i > ack {
			after++
			if i+1 == len(evs) || evs[i+1].Kind != dlm.EvGrant || evs[i+1].Client != e.Client || !evs[i+1].At.Equal(e.At) {
				return fmt.Errorf("client %d, admitted after the ack, not granted at once", e.Client)
			}
		}
	}
	if grants != readers {
		return fmt.Errorf("%d reader grants, want %d", grants, readers)
	}
	if after == 0 {
		return fmt.Errorf("the ack was admitted behind every reader request: it queued behind the readers it unblocks")
	}
	return nil
}

// TestVirtualReadFanColdStart pins the cold start of a read fan at the
// default 250 ms reclaim interval: before acks were demand-driven, every
// reader but the first sat out the first reader's 62.5 ms ack flush
// timer. The solicited ack must not queue behind the reader requests it
// unblocks at the lock server's OPS limiter either. Each seed runs twice
// and must reproduce itself exactly.
func TestVirtualReadFanColdStart(t *testing.T) {
	run := func(seed int64) string {
		v := sim.NewVClock(seed)
		hw := sim.TableI(1)
		hw.Clock = sim.Virtual(v)
		var out string
		var err error
		v.Run(func() { out, err = readFanColdStart(hw, 16, 8) })
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return out
	}
	for seed := int64(1); seed <= 8; seed++ {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d, different runs:\n%s\n%s", seed, a, b)
		}
		t.Logf("seed %d: %s", seed, a)
	}
}

// TestVirtualPingPongNoSolicit: chain stamping never leaves a waiter
// blocked behind a delegation, so a handoff ping-pong solicits nothing
// and stays at about one server RPC per exchange. The same exchange on
// the server path (Lock + Release per exchange) is the contrast: at
// least 1.5 server RPCs, or the revoke path stopped being exercised.
func TestVirtualPingPongNoSolicit(t *testing.T) {
	run := func(handoff bool) workload.Result {
		v := sim.NewVClock(3)
		hw := sim.TableI(1)
		hw.Clock = sim.Virtual(v)
		var st workload.Result
		var err error
		v.Run(func() {
			var c *cluster.Cluster
			if c, err = cluster.New(cluster.Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw, Handoff: handoff}); err != nil {
				return
			}
			st, err = workload.RunPingPong(c, workload.PingPongConfig{
				Exchanges: 64, WriteSize: 32 << 10, StripeSize: 1 << 20, StripeCount: 2,
			})
			c.Close()
		})
		if err != nil {
			t.Fatalf("handoff=%v: %v", handoff, err)
		}
		return st
	}
	st := run(true)
	if st.DLM.AckSolicits != 0 || st.DLM.HandoffReclaims != 0 {
		t.Fatalf("ping-pong: %d ack solicitations, %d reclaims, want 0", st.DLM.AckSolicits, st.DLM.HandoffReclaims)
	}
	if r := st.ServerRPCsPerOp(); r < 0.9 || r > 1.2 {
		t.Fatalf("ping-pong: %.3f server RPCs/exchange, want about 1", r)
	}
	if r := run(false).ServerRPCsPerOp(); r < 1.5 {
		t.Fatalf("server-path ping-pong: %.3f server RPCs/exchange, want >= 1.5", r)
	}
}

// TestVirtualPartitionScaling: hash-partitioned lock servers, each
// admitting lock RPCs at the same rate, multiply the grant throughput.
// The curve over 1, 2, 4 and 8 servers must rise at every step, and 8
// must carry at least 4x what 1 does. The ideal is 8x; under the
// virtual clock the seeded run reads it almost exactly, so the floor is
// about partitioning silently ceasing to scale, not about noise.
func TestVirtualPartitionScaling(t *testing.T) {
	exp := figure(t, "partition", 1)
	rows := exp.Rows
	if len(rows) != 4 {
		t.Fatalf("%d points, want 4 (N = 1, 2, 4, 8)\n%s", len(rows), exp.Text)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Throughput <= rows[i-1].Throughput {
			t.Errorf("%s carries %.0f grants/s, no more than %s's %.0f\n%s",
				rows[i].Variant, rows[i].Throughput, rows[i-1].Variant, rows[i-1].Throughput, exp.Text)
		}
	}
	if got := rows[3].Throughput / rows[0].Throughput; got < 4 {
		t.Errorf("N=8 throughput is %.2fx N=1, want >= 4x\n%s", got, exp.Text)
	}
}

// TestVirtualIORVerified runs a verified strided IOR inside a virtual
// clock: the read-back pass proves locking, caching, flushing, and SN
// resolution all work when every delay is an event on the heap.
func TestVirtualIORVerified(t *testing.T) {
	v := sim.NewVClock(99)
	hw := BenchHardware()
	hw.Clock = sim.Virtual(v)
	var res workload.Result
	var err error
	v.Run(func() {
		var c *cluster.Cluster
		c, err = cluster.New(cluster.Options{
			Servers:  2,
			Policy:   dlm.SeqDLM(),
			Hardware: hw,
		})
		if err != nil {
			return
		}
		res, err = workload.RunIOR(c, workload.IORConfig{
			Pattern:         workload.N1Strided,
			Clients:         4,
			WriteSize:       16 << 10,
			WritesPerClient: 8,
			StripeSize:      256 << 10,
			StripeCount:     2,
			Verify:          true,
		})
		c.Close()
	})
	if err != nil {
		t.Fatalf("virtual IOR: %v", err)
	}
	if res.PIO <= 0 || res.Ops != 32 {
		t.Fatalf("virtual IOR result: PIO=%v ops=%d", res.PIO, res.Ops)
	}
}

// TestVirtualSeedsDiffer guards against the opposite failure: if two
// different seeds produce identical grant-wait tables, the seed is not
// actually feeding the run and "deterministic" would be vacuous. Only
// the timing columns must differ; ops and bytes stay fixed.
func TestVirtualSeedsDiffer(t *testing.T) {
	t1 := figure(t, "pingpong", 1).Text
	t2 := figure(t, "pingpong", 42).Text
	if t1 == t2 {
		// Not fatal: with a workload this regular the seeded jitter may
		// legitimately cancel out. But it usually should not, so flag it
		// loudly when it happens.
		t.Logf("warning: seeds 1 and 42 produced identical tables:\n%s", t1)
	}
	if !strings.Contains(t1, "handoff") {
		t.Fatalf("table missing handoff variant:\n%s", t1)
	}
}
