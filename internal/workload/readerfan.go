package workload

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
)

// ReaderFanConfig parameterizes the write-then-fan-out rotation
// (DESIGN.md §14): one writer updates a shared region, then N readers
// re-read it, round after round — the producer-broadcast pattern whose
// read side the batched fan-out grant and the peer-to-peer lease
// propagation tree target. On the server path every round costs at
// least one lock RPC per reader; with Policy.Handoff on, the whole
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

// RunReaderFan executes the write-then-fan-out rotation. The result's
// DLM.Gathers says how many rounds the fan-out path carried,
// DLM.LeaseGrants how many read leases were installed without a reader
// lock RPC, and ServerRPCsPerOp the lock RPCs per reader-round. Every
// round's write revokes the readers' leases and so invalidates their
// cached pages: each read fetches the range from the data server in an
// RPC of its own, and the server's device serves the cohort's reads
// with one operation. Each round's block carries the round number at
// both ends, and a read that returns any other round's block fails the
// run.
func RunReaderFan(c *cluster.Cluster, cfg ReaderFanConfig) (Result, error) {
	cfg.Readers = max(cfg.Readers, 1)
	cfg.Rounds = max(cfg.Rounds, 1)
	s, err := open(c, 1+cfg.Readers, "fan", cfg.StripeSize, 1, shared("/readerfan"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	res := Result{Ops: int64(cfg.Rounds) * int64(cfg.Readers)}
	res.Bytes = res.Ops * cfg.WriteSize
	buf := make([]byte, cfg.WriteSize)
	rbufs := make([][]byte, cfg.Readers)
	for i := range rbufs {
		rbufs[i] = make([]byte, cfg.WriteSize)
	}
	ctx := context.Background()
	err = s.run(&res, func() error {
		for r := 0; r < cfg.Rounds; r++ {
			stamp(buf, r)
			// The writer locks the whole stripe in NBW so its lock
			// conflicts with every reader lease — the displacement that
			// arms the next broadcast.
			if _, err := s.files[0].WriteAtOpts(ctx, buf, 0, client.WriteOptions{
				Mode:            dlm.NBW,
				LockWholeStripe: true,
			}); err != nil {
				return err
			}
			if err := s.parallel(cfg.Readers, func(i int) error {
				if _, err := s.files[1+i].ReadAtContext(ctx, rbufs[i], 0); err != nil {
					return err
				}
				if !bytes.Equal(rbufs[i], buf) {
					return fmt.Errorf("readerfan: reader %d in round %d read a stale block", i, r)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// stamp marks buf with op at both ends, so blocks rewritten in place
// tell their rounds apart.
func stamp(buf []byte, op int) {
	binary.LittleEndian.PutUint64(buf, uint64(op))
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], uint64(op))
}
