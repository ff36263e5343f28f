package workload

import (
	"testing"

	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

// TestRunReaderFan drives the write-then-fan-out rotation through the
// full client/cluster stack with the fan path on and off, and checks
// the economy the experiment reports: with ReaderFanout the rotation
// must ride gathers and propagated leases and spend strictly fewer
// server RPCs per reader-round than the server grant path.
func TestRunReaderFan(t *testing.T) {
	cfg := ReaderFanConfig{Readers: 4, Rounds: 16, WriteSize: 16 << 10, StripeSize: 256 << 10}

	run := func(fan bool) Result {
		t.Helper()
		c, err := cluster.New(cluster.Options{
			Servers:      1,
			Policy:       dlm.SeqDLM(),
			Hardware:     sim.Fast(),
			Handoff:      fan,
			ReaderFanout: fan,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		st, err := RunReaderFan(c, cfg)
		if err != nil {
			t.Fatal(err)
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
