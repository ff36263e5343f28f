package workload

import (
	"bytes"
	"io"
	"testing"

	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

func fastCluster(t *testing.T, servers int, pol dlm.Policy) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{Servers: servers, Policy: pol, Hardware: sim.Fast()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPatternOffsets(t *testing.T) {
	cfg := IORConfig{Pattern: N1Strided, Clients: 4, WriteSize: 100, WritesPerClient: 3}
	// Rank 1, iteration 2: block index 2*4+1 = 9.
	if off := cfg.offset(1, 2); off != 900 {
		t.Fatalf("strided offset = %d, want 900", off)
	}
	cfg.Pattern = N1Segmented
	// Rank 1 owns [300, 600); iteration 2 at 300+200.
	if off := cfg.offset(1, 2); off != 500 {
		t.Fatalf("segmented offset = %d, want 500", off)
	}
	cfg.Pattern = NN
	if off := cfg.offset(1, 2); off != 200 {
		t.Fatalf("NN offset = %d, want 200", off)
	}
}

func TestPatternStrings(t *testing.T) {
	if NN.String() != "N-N" || N1Segmented.String() != "N-1 segmented" || N1Strided.String() != "N-1 strided" {
		t.Fatal("pattern names wrong")
	}
}

func TestRunIORAllPatterns(t *testing.T) {
	for _, pat := range []Pattern{NN, N1Segmented, N1Strided} {
		t.Run(pat.String(), func(t *testing.T) {
			c := fastCluster(t, 2, dlm.SeqDLM())
			res, err := RunIOR(c, IORConfig{
				Pattern:         pat,
				Clients:         4,
				WriteSize:       8 << 10,
				WritesPerClient: 6,
				StripeSize:      64 << 10,
				StripeCount:     2,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := int64(4 * 6 * (8 << 10))
			if res.Bytes != wantBytes || res.Ops != 24 {
				t.Fatalf("res = %+v", res)
			}
			if res.PIO <= 0 {
				t.Fatal("no PIO time recorded")
			}
			// Everything written must eventually land on servers.
			if got := c.FlushedBytes() + c.DiscardedBytes(); got < wantBytes {
				t.Fatalf("servers received %d bytes, want >= %d", got, wantBytes)
			}
			if res.BandwidthPIO() <= 0 || res.Throughput() <= 0 || res.BandwidthTotal() <= 0 {
				t.Fatal("derived metrics not positive")
			}
		})
	}
}

func TestRunIORDataIntact(t *testing.T) {
	c := fastCluster(t, 1, dlm.SeqDLM())
	cfg := IORConfig{
		Pattern:         N1Strided,
		Clients:         3,
		WriteSize:       4096 + 32, // unaligned: adjacent writes conflict
		WritesPerClient: 5,
		StripeSize:      1 << 20,
		StripeCount:     1,
		Path:            "/intact",
	}
	if _, err := RunIOR(c, cfg); err != nil {
		t.Fatal(err)
	}
	// Verify the strided content from a fresh client.
	cl, err := c.NewClient("verify")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Open("/intact")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.WriteSize)
	want := make([]byte, cfg.WriteSize)
	for i := 0; i < cfg.Clients; i++ {
		for k := 0; k < cfg.WritesPerClient; k++ {
			if _, err := f.ReadAt(buf, cfg.offset(i, k)); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			for b := range want {
				want[b] = byte(i + b)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("rank %d iteration %d corrupted", i, k)
			}
		}
	}
}

func TestRunSequentialBreakdown(t *testing.T) {
	c := fastCluster(t, 1, dlm.SeqDLM())
	res, err := RunSequential(c, SequentialConfig{
		Clients:     4,
		Writes:      40,
		WriteSize:   16 << 10,
		StripeSize:  1 << 20,
		StripeCount: 1,
		Mode:        dlm.NBW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 40 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Total() <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.DLM.RevocationWait+res.DLM.CancelWait > res.Total() {
		t.Fatalf("breakdown parts exceed total %v: %+v", res.Total(), res.DLM)
	}
}

// TestSequentialPWvsNBWConflictResolution checks the Fig. 17 claim
// structurally: under PW the conflict resolution (revocation + cancel)
// is a large share of total time once flushing is slow; under NBW the
// cancel wait collapses because early grant decouples flushing.
func TestSequentialPWvsNBWConflictResolution(t *testing.T) {
	hw := sim.Hardware{DiskBandwidth: 100e6, RTT: 200e3} // 100 MB/s disk, 200 µs RTT
	mk := func() *cluster.Cluster {
		c, err := cluster.New(cluster.Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	cfg := SequentialConfig{
		Clients:     4,
		Writes:      24,
		WriteSize:   256 << 10,
		StripeSize:  1 << 20,
		StripeCount: 1,
	}
	cfg.Mode = dlm.PW
	pw, err := RunSequential(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = dlm.NBW
	nbw, err := RunSequential(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pw.DLM.CancelWait <= nbw.DLM.CancelWait {
		t.Fatalf("PW cancel wait (%v) must exceed NBW's (%v): early grant not effective",
			pw.DLM.CancelWait, nbw.DLM.CancelWait)
	}
	if nbw.Total() >= pw.Total() {
		t.Fatalf("NBW total (%v) must beat PW total (%v)", nbw.Total(), pw.Total())
	}
}

func TestRunParallel(t *testing.T) {
	c := fastCluster(t, 1, dlm.SeqDLM())
	st, err := RunParallel(c, ParallelConfig{
		Clients:         4,
		WritesPerClient: 10,
		WriteSize:       8 << 10,
		StripeSize:      1 << 20,
		StripeCount:     1,
		Mode:            dlm.NBW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 40 || st.Throughput() <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LockRatio < 0 || st.LockRatio > 1 {
		t.Fatalf("lock ratio = %f", st.LockRatio)
	}
}

func TestRunMixed(t *testing.T) {
	c := fastCluster(t, 1, dlm.SeqDLM())
	res, err := RunMixed(c, MixedConfig{
		Ops:        20,
		Size:       4 << 10,
		StripeSize: 1 << 20,
		WriteMode:  dlm.NBW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 20 || res.PIO <= 0 {
		t.Fatalf("res = %+v", res)
	}
	// With conversion on, the same-client read/write conflict upgrades
	// instead of revoking round trips.
	if c.DLMStats().Upgrades == 0 {
		t.Fatal("mixed workload triggered no lock upgrading")
	}
}

func TestRunSpan(t *testing.T) {
	c := fastCluster(t, 2, dlm.SeqDLM())
	res, err := RunSpan(c, SpanConfig{
		Clients:         4,
		WritesPerClient: 5,
		WriteSize:       32 << 10,
		StripeSize:      64 << 10,
		Mode:            dlm.BW,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 20 {
		t.Fatalf("res = %+v", res)
	}
	// Spanning BW writes under contention must trigger downgrades.
	if c.DLMStats().Downgrades == 0 {
		t.Fatal("spanning BW writes triggered no lock downgrading")
	}
}

func TestTileConfigGeometry(t *testing.T) {
	cfg := TileConfig{TilesX: 3, TilesY: 2, TileDim: 100, OverlapPx: 10, ElementSize: 4}
	w, h := cfg.ArrayDim()
	if w != 90*2+100 || h != 90*1+100 {
		t.Fatalf("array dim = %dx%d", w, h)
	}
	if cfg.TileBytes() != 100*100*4 {
		t.Fatalf("tile bytes = %d", cfg.TileBytes())
	}
	ops := cfg.tileOps(1, 1, 7)
	if len(ops) != 100 {
		t.Fatalf("tile rows = %d", len(ops))
	}
	// Row r of tile (1,1) starts at ((90 + r) * w + 90) * 4.
	if ops[0].Off != (90*w+90)*4 {
		t.Fatalf("first row offset = %d", ops[0].Off)
	}
	if int64(len(ops[0].Data)) != 400 {
		t.Fatalf("row length = %d", len(ops[0].Data))
	}
}

func TestRunTileIOBothPolicies(t *testing.T) {
	for _, pol := range []dlm.Policy{dlm.SeqDLM(), dlm.Datatype()} {
		t.Run(pol.Name, func(t *testing.T) {
			c := fastCluster(t, 2, pol)
			cfg := TileConfig{
				TilesX: 2, TilesY: 2,
				TileDim:     32,
				OverlapPx:   4,
				ElementSize: 4,
				StripeSize:  4 << 10,
				StripeCount: 2,
			}
			res, err := RunTileIO(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 4 || res.Bytes != 4*cfg.TileBytes() {
				t.Fatalf("res = %+v", res)
			}
		})
	}
}

func TestVPICOffsetsDisjoint(t *testing.T) {
	cfg := VPICConfig{
		ClientNodes: 2, ProcsPerNode: 2,
		ParticlesPerIter: 100, Iterations: 2, Variables: 3, ElementSize: 4,
	}
	seen := map[int64]bool{}
	for iter := 0; iter < cfg.Iterations; iter++ {
		for v := 0; v < cfg.Variables; v++ {
			for p := 0; p < 4; p++ {
				off := cfg.offset(iter, v, p)
				if seen[off] {
					t.Fatalf("duplicate offset %d", off)
				}
				seen[off] = true
				if off%cfg.chunkBytes() != 0 {
					t.Fatalf("offset %d not chunk aligned", off)
				}
			}
		}
	}
	if cfg.TotalBytes() != int64(len(seen))*cfg.chunkBytes() {
		t.Fatal("TotalBytes inconsistent with offset count")
	}
}

func TestRunVPIC(t *testing.T) {
	c := fastCluster(t, 2, dlm.SeqDLM())
	cfg := VPICConfig{
		ClientNodes:      2,
		ProcsPerNode:     2,
		ParticlesPerIter: 512,
		Iterations:       2,
		Variables:        4,
		ElementSize:      4,
		StripeSize:       64 << 10,
		StripeCount:      2,
	}
	res, err := RunVPIC(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != cfg.TotalBytes() {
		t.Fatalf("bytes = %d, want %d", res.Bytes, cfg.TotalBytes())
	}
	if got := c.FlushedBytes() + c.DiscardedBytes(); got < res.Bytes {
		t.Fatalf("servers received %d, want >= %d", got, res.Bytes)
	}
}

// TestRunIORVerifyMode exercises the built-in readback verification on
// every pattern and both major policies — the IO500-style check wired
// into the harness itself.
func TestRunIORVerifyMode(t *testing.T) {
	for _, pol := range []dlm.Policy{dlm.SeqDLM(), dlm.Basic()} {
		for _, pat := range []Pattern{NN, N1Segmented, N1Strided} {
			t.Run(pol.Name+"/"+pat.String(), func(t *testing.T) {
				c := fastCluster(t, 2, pol)
				_, err := RunIOR(c, IORConfig{
					Pattern:         pat,
					Clients:         3,
					WriteSize:       4096 + 16, // unaligned
					WritesPerClient: 5,
					StripeSize:      64 << 10,
					StripeCount:     2,
					Verify:          true,
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestRunCheckpointRestart(t *testing.T) {
	for _, pol := range []dlm.Policy{dlm.SeqDLM(), dlm.Lustre()} {
		t.Run(pol.Name, func(t *testing.T) {
			c := fastCluster(t, 2, pol)
			res, err := RunCheckpoint(c, CheckpointConfig{
				Ranks:       4,
				BlockSize:   9000, // unaligned
				BlocksEach:  6,
				StripeSize:  64 << 10,
				StripeCount: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bytes != 4*6*9000 {
				t.Fatalf("bytes = %d", res.Bytes)
			}
			if res.PIO <= 0 || res.Restart <= 0 {
				t.Fatalf("phases not timed: %+v", res)
			}
		})
	}
}
