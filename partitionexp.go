package ccpfs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
)

// Partition-scaling experiment (DESIGN.md §12): the same lock-acquire
// workload against clusters of 1..N lock servers with the lock space
// hash-partitioned across them, reporting aggregate grant throughput.
// Each simulated server admits lock RPCs at Hardware.ServerOPS, so the
// curve shows how partitioned mastership multiplies the lock service
// capacity — the scaling claim behind ROADMAP item 1, measured through
// the full client→RPC→DLM stack, partition-map routing included.
// TestVirtualPartitionScaling gates N=4 at twice N=1 or better.

// PartitionScaleConfig parameterizes the scaling experiment.
type PartitionScaleConfig struct {
	Hardware Hardware
	// Servers is the list of lock-server counts to measure.
	Servers []int
	// Workers is the number of concurrent locking goroutines; the
	// offered load must exceed the largest configuration's aggregate
	// capacity for the curve to measure saturation throughput.
	Workers int
	// Ops is the number of lock acquisitions measured per point. Every
	// op targets a fresh resource, so none is absorbed by the client
	// lock cache and each one pays a server admission.
	Ops int
	// Seed seeds each server-count point's virtual clock.
	Seed int64
}

// DefaultPartitionScale returns the scaled-down configuration.
func DefaultPartitionScale() PartitionScaleConfig {
	return PartitionScaleConfig{
		Hardware: BenchHardware(),
		Servers:  []int{1, 2, 4},
		Workers:  64,
		Ops:      3000,
		Seed:     1,
	}
}

// partitionScaleOPS bounds the per-server admission rate of this
// experiment. Above ~2.5k OPS the admission interval drops toward the
// scheduler's sleep granularity (roughly a millisecond on small hosts)
// and the rate limiter stops being the binding constraint, which would
// flatten the curve for reasons that have nothing to do with the
// partition layer. The cap cancels out of the between-N comparison the
// experiment exists to show.
const partitionScaleOPS = 2500.0

// RunPartitionScale measures aggregate lock-grant throughput for each
// lock-server count.
func RunPartitionScale(cfg PartitionScaleConfig) (*Experiment, error) {
	exp := &Experiment{ID: "Partition", Title: "Lock-space partitioning: aggregate grant throughput vs lock servers"}
	hw := cfg.Hardware
	if hw.ServerOPS > partitionScaleOPS {
		hw.ServerOPS = partitionScaleOPS
	}
	tb := newTable("lock servers", "grants", "time", "throughput (grants/s)", "vs N=1")
	base := 0.0
	for _, n := range cfg.Servers {
		elapsed, err := simulate(cfg.Seed, cluster.Options{Servers: n, Policy: dlm.SeqDLM(), Hardware: hw, Partition: true},
			func(c *Cluster) (time.Duration, error) { return runPartitionPoint(c, cfg.Workers, cfg.Ops) })
		if err != nil {
			return nil, fmt.Errorf("partition scale N=%d: %w", n, err)
		}
		tput := float64(cfg.Ops) / elapsed.Seconds()
		if base == 0 {
			base = tput
		}
		tb.Row(fmt.Sprint(n), fmt.Sprint(cfg.Ops), seconds(elapsed),
			fmt.Sprintf("%.0f", tput), fmt.Sprintf("%.2fx", tput/base))
		exp.Rows = append(exp.Rows, Row{
			Variant:    fmt.Sprintf("N=%d", n),
			Stripes:    uint32(n),
			Throughput: tput,
			PIO:        elapsed,
		})
	}
	exp.Text = tb.String()
	return exp, nil
}

// runPartitionPoint runs ops lock acquisitions from workers concurrent
// workers on c and returns the time they took.
func runPartitionPoint(c *Cluster, workers, ops int) (time.Duration, error) {
	// A handful of client stacks shared by the workers: the measured
	// quantity is server-side admission capacity, not client count.
	nclients := 4
	if workers < nclients {
		nclients = workers
	}
	clients := make([]*Client, nclients)
	for i := range clients {
		cl, err := c.NewClient(fmt.Sprintf("scale-%d", i))
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		clients[i] = cl
	}

	clk := c.Clock()
	var next atomic.Int64
	var firstErr atomic.Value
	grp := sim.NewGroup(clk)
	ctx := context.Background()
	start := clk.Now()
	for w := 0; w < workers; w++ {
		grp.Go(func() {
			locks := clients[w%nclients].Locks()
			for {
				i := next.Add(1)
				if i > int64(ops) {
					return
				}
				// A fresh resource per op: never cached, so every
				// acquisition is a real admission at its slot's master.
				rid := dlm.ResourceID(1_000_000 + i)
				h, err := locks.Acquire(ctx, rid, dlm.PW, extent.New(0, 4096))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				locks.Unlock(h)
			}
		})
	}
	grp.Wait()
	elapsed := clk.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return elapsed, nil
}
