package workload

import (
	"context"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/obs"
)

// PingPongConfig parameterizes the producer-consumer exchange pattern
// (DESIGN.md §13): two clients alternate whole-stripe writes over one
// stripe set, so every stripe's write lock ping-pongs between them —
// the stable two-party conflict the handoff fast path targets. Run it
// on a cluster built with Options.Handoff on and off to measure the
// before/after (seqbench -exp pingpong does both).
type PingPongConfig struct {
	// Exchanges is the number of ownership swaps of the stripe set;
	// each exchange writes one block on every stripe.
	Exchanges   int
	WriteSize   int64
	StripeSize  int64
	StripeCount uint32
	// Mode forces a lock mode; zero means NBW, the mode the selection
	// rules pick for non-whole-stripe writes and the one whose missing
	// implicit read makes delegation chains possible.
	Mode dlm.Mode
}

// PingPongStats extends Result with the run's lock-protocol accounting.
type PingPongStats struct {
	Result
	// DLM is the windowed counter delta of the run: Handoffs says how
	// many lock exchanges the fast path delegated, LockOps what the run
	// cost in server RPCs.
	DLM dlm.Snapshot
	// ServerRPCsPerExchange is LockOps per per-stripe lock exchange:
	// ~2 on the classic revoke path (Lock + Release), ~1 once handoff
	// delegates the transfer and its ack piggybacks.
	ServerRPCsPerExchange float64
	// GrantWait is the cluster-merged grant-wait histogram at the end
	// of the run — the Fig. 17-style wait distribution. It covers the
	// cluster's whole lifetime, so use a fresh cluster per run (as
	// seqbench does) when comparing distributions.
	GrantWait obs.HistSnapshot
	// Superseded is the bytes the clients' own later writes replaced in
	// their page caches before a flush collected them (pagecache
	// SupersededBytes): written, never flushed, so the data servers'
	// flushed + discarded bytes fall short of Bytes by exactly this.
	Superseded int64
}

// RunPingPong executes the alternating producer-consumer sequence and
// returns timings plus handoff accounting.
func RunPingPong(c *cluster.Cluster, cfg PingPongConfig) (PingPongStats, error) {
	if cfg.Mode == 0 {
		cfg.Mode = dlm.NBW
	}
	clients, err := c.Clients(2, "pp")
	if err != nil {
		return PingPongStats{}, err
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	files := make([]*client.File, len(clients))
	for i, cl := range clients {
		f, err := cl.OpenOrCreate("/pingpong", cfg.StripeSize, cfg.StripeCount)
		if err != nil {
			return PingPongStats{}, err
		}
		files[i] = f
	}

	clk := c.Clock()
	before := c.DLMStats()
	buf := make([]byte, cfg.WriteSize)
	start := clk.Now()
	// The producer/consumer token ring: the active side writes every
	// stripe of the set, then ownership swaps — as with the paper's
	// MPI_Send/MPI_Recv sequential test, the turn-taking itself is the
	// workload.
	for k := 0; k < cfg.Exchanges; k++ {
		f := files[k%2]
		for s := int64(0); s < int64(cfg.StripeCount); s++ {
			if _, err := f.WriteAtOpts(context.Background(), buf, s*cfg.StripeSize, client.WriteOptions{
				Mode:            cfg.Mode,
				LockWholeStripe: true,
			}); err != nil {
				return PingPongStats{}, err
			}
		}
	}
	pio := clk.Since(start)
	flush := drain(clk, clients, files)

	st := PingPongStats{Result: Result{
		PIO:   pio,
		Flush: flush,
		Bytes: int64(cfg.Exchanges) * int64(cfg.StripeCount) * cfg.WriteSize,
		Ops:   int64(cfg.Exchanges) * int64(cfg.StripeCount),
	}}
	st.DLM = c.DLMStats().Sub(before)
	if st.Ops > 0 {
		st.ServerRPCsPerExchange = float64(st.DLM.LockOps) / float64(st.Ops)
	}
	st.GrantWait = c.DLMStatsBreakdown().GrantWait
	for _, cl := range clients {
		st.Superseded += cl.PageCache().SupersededBytes()
	}
	return st, nil
}
