package workload

import (
	"testing"

	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

// TestRunReaderFan drives the write-then-fan-out rotation through the
// full client/cluster stack with the fan path on and off, and checks
// the economy the experiment reports: with delegation on the rotation
// must ride gathers and propagated leases and spend strictly fewer
// server RPCs per reader-round than the server grant path.
func TestRunReaderFan(t *testing.T) {
	cfg := ReaderFanConfig{Readers: 4, Rounds: 16, WriteSize: 16 << 10, StripeSize: 256 << 10}

	run := func(fan bool) Result {
		t.Helper()
		c, err := cluster.New(cluster.Options{
			Servers:  1,
			Policy:   dlm.SeqDLM(),
			Hardware: sim.Fast(),
			Handoff:  fan,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		st, err := RunReaderFan(c, cfg)
		if err != nil {
			t.Fatalf("fan=%v: %v", fan, err)
		}
		return st
	}

	server := run(false)
	fan := run(true)

	if server.DLM.Gathers != 0 || server.DLM.LeaseGrants != 0 {
		t.Fatalf("server path ran fan machinery: %+v", server.DLM)
	}
	// Every reader-round costs at least a lock RPC on the server path.
	if server.ServerRPCsPerOp() < 1 {
		t.Fatalf("server path RPCs/reader = %.2f, want >= 1", server.ServerRPCsPerOp())
	}
	// The fan path must carry the steady-state rotation: most rounds
	// gather the cohort back, and the displaced cohort's leases arrive
	// without reader lock RPCs.
	if fan.DLM.Gathers < int64(cfg.Rounds/2) {
		t.Fatalf("fan path gathers = %d, want >= %d", fan.DLM.Gathers, cfg.Rounds/2)
	}
	if fan.DLM.LeaseGrants < int64(cfg.Rounds/2*cfg.Readers) {
		t.Fatalf("fan path lease grants = %d, want >= %d", fan.DLM.LeaseGrants, cfg.Rounds/2*cfg.Readers)
	}
	if fan.ServerRPCsPerOp() >= server.ServerRPCsPerOp() {
		t.Fatalf("fan path RPCs/reader = %.2f, server path = %.2f; no economy",
			fan.ServerRPCsPerOp(), server.ServerRPCsPerOp())
	}
}

// TestReaderFanOneDeviceReadPerRound: on the Table I device each
// round's first reader starts the stripe's read alone, and the other
// readers arrive while it is in service; they are served by that read,
// so every round costs the device one read operation.
func TestReaderFanOneDeviceReadPerRound(t *testing.T) {
	const readers, rounds = 8, 8
	v := sim.NewVClock(1)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	var reqs, ops int64
	var err error
	v.Run(func() {
		var c *cluster.Cluster
		if c, err = cluster.New(cluster.Options{
			Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw, Handoff: true,
		}); err != nil {
			return
		}
		defer c.Close()
		if _, err = RunReaderFan(c, ReaderFanConfig{
			Readers: readers, Rounds: rounds, WriteSize: 64 << 10, StripeSize: 1 << 20,
		}); err != nil {
			return
		}
		snap := c.Servers[0].Obs().Snapshot()
		reqs, ops = snap.Counters["storage.read_requests"], snap.Counters["storage.read_ops"]
	})
	if err != nil {
		t.Fatal(err)
	}
	if reqs != readers*rounds || ops > rounds {
		t.Fatalf("device: %d read requests in %d read ops, want %d in at most %d", reqs, ops, readers*rounds, rounds)
	}
}
