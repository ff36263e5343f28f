package workload

import (
	"context"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
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

// RunPingPong executes the alternating producer-consumer sequence. The
// result's DLM.Handoffs says how many lock exchanges the fast path
// delegated, and ServerRPCsPerOp what each per-stripe exchange cost.
func RunPingPong(c *cluster.Cluster, cfg PingPongConfig) (Result, error) {
	if cfg.Mode == 0 {
		cfg.Mode = dlm.NBW
	}
	s, err := open(c, 2, "pp", cfg.StripeSize, cfg.StripeCount, shared("/pingpong"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	res := Result{Ops: int64(cfg.Exchanges) * int64(cfg.StripeCount)}
	res.Bytes = res.Ops * cfg.WriteSize
	buf := make([]byte, cfg.WriteSize)
	// The producer/consumer token ring: the active side writes every
	// stripe of the set, then ownership swaps — as with the paper's
	// MPI_Send/MPI_Recv sequential test, the turn-taking itself is the
	// workload. Every block of exchange k holds byte(k+1), so a read-back
	// tells the last writer's blocks from a superseded version's.
	err = s.run(&res, func() error {
		for k := 0; k < cfg.Exchanges; k++ {
			f := s.files[k%2]
			for i := range buf {
				buf[i] = byte(k + 1)
			}
			for st := int64(0); st < int64(cfg.StripeCount); st++ {
				if _, err := f.WriteAtOpts(context.Background(), buf, st*cfg.StripeSize, client.WriteOptions{
					Mode:            cfg.Mode,
					LockWholeStripe: true,
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return res, err
}
