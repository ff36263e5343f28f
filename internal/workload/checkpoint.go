package workload

import (
	"bytes"
	"fmt"
	"io"

	"ccpfs/internal/cluster"
)

// CheckpointConfig parameterizes a checkpoint/restart cycle — the
// scientific-application IO the paper's introduction motivates (PLFS's
// N-1 checkpoints, read back on restart). The write phase is an N-1
// strided checkpoint of every rank's state; the restart phase reads the
// checkpoint back from a *different* rank mapping (the classic restart-
// with-different-decomposition case), verifying content.
type CheckpointConfig struct {
	Ranks       int
	BlockSize   int64
	BlocksEach  int
	StripeSize  int64
	StripeCount uint32
}

// TotalBytes is the checkpoint volume.
func (cfg CheckpointConfig) TotalBytes() int64 {
	return int64(cfg.Ranks*cfg.BlocksEach) * cfg.BlockSize
}

// rankBlock returns the deterministic content of (rank, block).
func rankBlock(rank, block int, size int64) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(rank*37 + block*11 + i)
	}
	return out
}

// RunCheckpoint executes the checkpoint and restart cycle: the write
// phase is the result's PIO, the drain (the checkpoint must be durable
// before the job exits) its Flush, and the read-back its Restart.
func RunCheckpoint(c *cluster.Cluster, cfg CheckpointConfig) (Result, error) {
	s, err := open(c, cfg.Ranks, "ckpt", cfg.StripeSize, cfg.StripeCount, shared("/checkpoint"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	res := Result{Bytes: cfg.TotalBytes(), Ops: int64(cfg.Ranks * cfg.BlocksEach)}
	// Phase 1: N-1 strided checkpoint write.
	err = s.run(&res, func() error {
		return s.parallel(cfg.Ranks, func(r int) error {
			for b := 0; b < cfg.BlocksEach; b++ {
				off := int64(b*cfg.Ranks+r) * cfg.BlockSize
				if _, err := s.files[r].WriteAt(rankBlock(r, b, cfg.BlockSize), off); err != nil {
					return fmt.Errorf("rank %d block %d: %w", r, b, err)
				}
			}
			return nil
		})
	})
	if err != nil {
		return res, err
	}

	// Phase 2: restart — every rank reads blocks written by OTHER ranks
	// (shifted mapping) and verifies them.
	res.Restart, err = s.timed(func() error {
		return s.parallel(cfg.Ranks, func(r int) error {
			buf := make([]byte, cfg.BlockSize)
			src := (r + 1) % cfg.Ranks // different decomposition on restart
			for b := 0; b < cfg.BlocksEach; b++ {
				off := int64(b*cfg.Ranks+src) * cfg.BlockSize
				if _, err := s.files[r].ReadAt(buf, off); err != nil && err != io.EOF {
					return fmt.Errorf("restart rank %d block %d: %w", r, b, err)
				}
				if !bytes.Equal(buf, rankBlock(src, b, cfg.BlockSize)) {
					return fmt.Errorf("restart rank %d: block %d of rank %d corrupted", r, b, src)
				}
			}
			return nil
		})
	})
	return res, err
}
