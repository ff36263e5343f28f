package workload

import (
	"context"
	"sync"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

// ReaderFanConfig parameterizes the write-then-fan-out rotation
// (DESIGN.md §14): one writer updates a shared region, then N readers
// re-read it, round after round — the producer-broadcast pattern whose
// read side the batched fan-out grant and the peer-to-peer lease
// propagation tree target. On the server path every round costs at
// least one lock RPC per reader; with ReaderFanout on, the whole
// cohort's leases ride one batched grant (round one) and afterwards
// propagate client-to-client, so the per-round server cost stays near
// the writer's single lock RPC regardless of reader count.
type ReaderFanConfig struct {
	// Readers is the fan-out width N; Rounds how many write-then-read
	// cycles run.
	Readers int
	Rounds  int
	// WriteSize is the writer's update (and the readers' read) size.
	WriteSize  int64
	StripeSize int64
}

// ReaderFanStats extends Result with the rotation's lock accounting.
type ReaderFanStats struct {
	Result
	// DLM is the windowed counter delta of the run: Gathers says how
	// many rounds the fan-out path carried, LeaseGrants how many read
	// leases were installed without a reader lock RPC.
	DLM dlm.Snapshot
	// ServerRPCsPerReader is LockOps per reader-round — the headline
	// economy: ≥1 on the server path, fractional once leases propagate
	// peer-to-peer (one writer RPC amortized over the cohort).
	ServerRPCsPerReader float64
}

// RunReaderFan executes the write-then-fan-out rotation and returns
// timings plus fan-out accounting. Reads hit the readers' page caches
// after the first fetch; the interesting cost is the lock traffic, not
// the data movement.
func RunReaderFan(c *cluster.Cluster, cfg ReaderFanConfig) (ReaderFanStats, error) {
	if cfg.Readers < 1 {
		cfg.Readers = 1
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	clients, err := c.Clients(1+cfg.Readers, "fan")
	if err != nil {
		return ReaderFanStats{}, err
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	files := make([]*client.File, len(clients))
	for i, cl := range clients {
		f, err := cl.OpenOrCreate("/readerfan", cfg.StripeSize, 1)
		if err != nil {
			return ReaderFanStats{}, err
		}
		files[i] = f
	}

	before := c.DLMStats()
	buf := make([]byte, cfg.WriteSize)
	rbufs := make([][]byte, cfg.Readers)
	for i := range rbufs {
		rbufs[i] = make([]byte, cfg.WriteSize)
	}
	clk := c.Clock()
	ctx := context.Background()
	start := clk.Now()
	for r := 0; r < cfg.Rounds; r++ {
		// The writer locks the whole stripe in NBW so its lock conflicts
		// with every reader lease — the displacement that arms the next
		// broadcast.
		if _, err := files[0].WriteAtOpts(ctx, buf, 0, client.WriteOptions{
			Mode:            dlm.NBW,
			LockWholeStripe: true,
		}); err != nil {
			return ReaderFanStats{}, err
		}
		grp := sim.NewGroup(clk)
		var errMu sync.Mutex
		var readErr error
		for i := 0; i < cfg.Readers; i++ {
			grp.Go(func() {
				if _, err := files[1+i].ReadAtContext(ctx, rbufs[i], 0); err != nil {
					errMu.Lock()
					if readErr == nil {
						readErr = err
					}
					errMu.Unlock()
				}
			})
		}
		grp.Wait()
		if readErr != nil {
			return ReaderFanStats{}, readErr
		}
	}
	pio := clk.Since(start)
	flush := drain(clk, clients, files)

	st := ReaderFanStats{Result: Result{
		PIO:   pio,
		Flush: flush,
		Bytes: int64(cfg.Rounds) * int64(cfg.Readers) * cfg.WriteSize,
		Ops:   int64(cfg.Rounds) * int64(cfg.Readers),
	}}
	st.DLM = c.DLMStats().Sub(before)
	if st.Ops > 0 {
		st.ServerRPCsPerReader = float64(st.DLM.LockOps) / float64(st.Ops)
	}
	return st, nil
}
