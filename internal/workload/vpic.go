package workload

import (
	"fmt"

	"ccpfs/internal/cluster"
)

// VPICConfig parameterizes the VPIC-IO / h5bench workload (§V-E):
// processes write particles into a shared file over several iterations.
// Each particle has Variables variables of ElementSize bytes; within one
// iteration each variable's data is contiguous in the file and the
// processes' chunks for one variable are laid out back to back (N-1
// segmented per variable, strided across variables and iterations).
type VPICConfig struct {
	// ClientNodes is the number of ccPFS clients (the paper's 80 client
	// nodes, each running an IO-forwarding daemon).
	ClientNodes int
	// ProcsPerNode is the number of application processes whose IO is
	// shipped to each node's client (16 in the paper).
	ProcsPerNode int
	// ParticlesPerIter is the number of particles each process writes
	// per iteration (65,536 or 262,144 in the paper).
	ParticlesPerIter int
	// Iterations is the number of write iterations (128 or 32).
	Iterations int
	// Variables per particle (8 in the paper).
	Variables int
	// ElementSize is bytes per variable (4).
	ElementSize int
	StripeSize  int64
	StripeCount uint32
}

// chunkBytes is the write size of one (proc, var, iter) chunk.
func (cfg VPICConfig) chunkBytes() int64 {
	return int64(cfg.ParticlesPerIter) * int64(cfg.ElementSize)
}

// TotalBytes is the volume written by the whole job.
func (cfg VPICConfig) TotalBytes() int64 {
	procs := int64(cfg.ClientNodes * cfg.ProcsPerNode)
	return procs * int64(cfg.Iterations) * int64(cfg.Variables) * cfg.chunkBytes()
}

// offset places chunk (iter, v, proc): variables are contiguous per
// iteration, processes back to back within a variable.
func (cfg VPICConfig) offset(iter, v, proc int) int64 {
	procs := int64(cfg.ClientNodes * cfg.ProcsPerNode)
	varBlock := procs * cfg.chunkBytes()
	return (int64(iter)*int64(cfg.Variables)+int64(v))*varBlock + int64(proc)*cfg.chunkBytes()
}

// RunVPIC executes the particle write phases: phase 2 (parallel writes,
// PIO) and phase 3 (flush to disk, F).
func RunVPIC(c *cluster.Cluster, cfg VPICConfig) (Result, error) {
	s, err := open(c, cfg.ClientNodes, "vpic", cfg.StripeSize, cfg.StripeCount, shared("/vpic.h5"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	procs := cfg.ClientNodes * cfg.ProcsPerNode
	res := Result{Ops: int64(procs * cfg.Iterations * cfg.Variables), Bytes: cfg.TotalBytes()}
	err = s.run(&res, func() error {
		// Process proc ships its IO to its node's client.
		return s.parallel(procs, func(proc int) error {
			buf := make([]byte, cfg.chunkBytes())
			for i := range buf {
				buf[i] = byte(proc + i)
			}
			f := s.files[proc/cfg.ProcsPerNode]
			for iter := 0; iter < cfg.Iterations; iter++ {
				for v := 0; v < cfg.Variables; v++ {
					if _, err := f.WriteAt(buf, cfg.offset(iter, v, proc)); err != nil {
						return fmt.Errorf("proc %d iter %d var %d: %w", proc, iter, v, err)
					}
				}
			}
			return nil
		})
	})
	return res, err
}
