package ccpfs

import (
	"context"
	"fmt"
	"sync/atomic"

	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/workload"
)

// Partition-scaling experiment (DESIGN.md §12): the same lock-acquire
// workload against clusters of 1, 2, 4 and 8 lock servers with the lock
// space hash-partitioned across them, reporting aggregate grant
// throughput. Each simulated server admits lock RPCs at
// BenchHardware's ServerOPS, so the curve shows how partitioned
// mastership multiplies the lock service capacity — the scaling claim
// behind ROADMAP item 1, measured through the full client→RPC→DLM
// stack, partition-map routing included. 64 workers offer more load
// than eight servers admit, so each point measures saturation
// throughput over 3,000 acquisitions. TestVirtualPartitionScaling gates
// the curve.
func runPartitionScale(seed int64) (*Experiment, error) {
	const workers, ops = 64, 3000
	exp := &Experiment{}
	tb := newTable("lock servers", "grants", "time", "throughput (grants/s)", "vs N=1")
	base := 0.0
	for _, n := range []int{1, 2, 4, 8} {
		res, err := simulate(seed, cluster.Options{Servers: n, Policy: dlm.SeqDLM(), Hardware: BenchHardware(), Partition: true},
			func(c *Cluster) (workload.Result, error) { return runPartitionPoint(c, workers, ops) })
		if err != nil {
			return nil, fmt.Errorf("partition scale N=%d: %w", n, err)
		}
		tput := res.Throughput()
		if base == 0 {
			base = tput
		}
		tb.Row(fmt.Sprint(n), fmt.Sprint(ops), seconds(res.PIO),
			fmt.Sprintf("%.0f", tput), fmt.Sprintf("%.2fx", tput/base))
		exp.Rows = append(exp.Rows, Row{Variant: fmt.Sprintf("N=%d", n), Stripes: uint32(n), Throughput: tput, PIO: res.PIO})
	}
	exp.Text = tb.String()
	return exp, nil
}

// runPartitionPoint runs ops lock acquisitions from workers concurrent
// workers on c; every op targets a fresh resource, so none is absorbed
// by the client lock cache and each one pays a server admission.
func runPartitionPoint(c *Cluster, workers, ops int) (workload.Result, error) {
	// A handful of client stacks shared by the workers: the measured
	// quantity is server-side admission capacity, not client count.
	clients := make([]*Client, 4)
	for i := range clients {
		cl, err := c.NewClient(fmt.Sprintf("scale-%d", i))
		if err != nil {
			return workload.Result{}, err
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
			locks := clients[w%len(clients)].Locks()
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
	err, _ := firstErr.Load().(error)
	return workload.Result{PIO: clk.Since(start), Ops: int64(ops)}, err
}
