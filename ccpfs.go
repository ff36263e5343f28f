// Package ccpfs is a from-scratch Go reproduction of SeqDLM and ccPFS
// from "SeqDLM: A Sequencer-Based Distributed Lock Manager for Efficient
// Shared File Access in a Parallel File System" (SC 2022).
//
// The package is the public facade over the internal implementation:
//
//   - a lock-server engine implementing SeqDLM (early grant, early
//     revocation, PR/NBW/BW/PW modes, automatic lock conversion) and the
//     paper's three baselines (DLM-basic, DLM-Lustre, DLM-datatype);
//   - the ccPFS burst-buffer file system around it: striped files,
//     SN-tagged client page caches, data servers with extent caches, a
//     namespace service, and a POSIX-like client API;
//   - an in-process cluster harness with a simulated fabric (latency,
//     bandwidth, lock-server OPS, disk) standing in for the paper's
//     96-node InfiniBand/NVMe testbed;
//   - workload generators (IOR N-N / N-1, Tile-IO, VPIC-IO) and one
//     experiment runner per table and figure of the paper's evaluation.
//
// Quick start:
//
//	c, _ := ccpfs.NewCluster(ccpfs.Options{Servers: 4, Policy: ccpfs.SeqDLM()})
//	defer c.Close()
//	cl, _ := c.NewClient("node-0")
//	defer cl.Close()
//	f, _ := cl.Create("/data", 1<<20, 4)
//	f.WriteAt([]byte("hello"), 0)
package ccpfs

import (
	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/pagecache"
	"ccpfs/internal/sim"
	"ccpfs/internal/workload"
)

// Cluster is an in-process ccPFS deployment: data servers, a namespace
// service, and a factory for client nodes.
type Cluster = cluster.Cluster

// Options configure a cluster.
type Options = cluster.Options

// Client is a ccPFS client node (libccPFS).
type Client = client.Client

// File is an open ccPFS file.
type File = client.File

// WriteOptions tune a write for experiments.
type WriteOptions = client.WriteOptions

// WriteOp is one piece of a vectored (atomic non-contiguous) write.
type WriteOp = client.WriteOp

// Policy selects which DLM the cluster runs.
type Policy = dlm.Policy

// Mode is a lock mode (PR, NBW, BW, PW, and the legacy LR/LW).
type Mode = dlm.Mode

// Hardware is the simulated testbed model.
type Hardware = sim.Hardware

// PageCacheConfig sizes a client's page cache.
type PageCacheConfig = pagecache.Config

// Lock modes, re-exported for WriteOptions.
const (
	PR  = dlm.PR
	NBW = dlm.NBW
	BW  = dlm.BW
	PW  = dlm.PW
)

// NewCluster builds and starts an in-process cluster.
func NewCluster(opts Options) (*Cluster, error) { return cluster.New(opts) }

// SeqDLM returns the paper's proposed lock manager policy.
func SeqDLM() Policy { return dlm.SeqDLM() }

// DLMBasic returns the general traditional DLM baseline.
func DLMBasic() Policy { return dlm.Basic() }

// DLMLustre returns the Lustre-special DLM baseline (expansion capped at
// 32 MB past 32 grants).
func DLMLustre() Policy { return dlm.Lustre() }

// DLMDatatype returns the datatype-locking baseline for atomic
// non-contiguous IO.
func DLMDatatype() Policy { return dlm.Datatype() }

// FastHardware returns a hardware model with no simulated delays, for
// functional use.
func FastHardware() Hardware { return sim.Fast() }

// IOR re-exports: the workload generator behind the paper's headline
// figures.
type (
	// IORConfig parameterizes an IOR-like run (N-N, N-1 segmented,
	// N-1 strided).
	IORConfig = workload.IORConfig
	// IORResult is the timing of a workload run.
	IORResult = workload.Result
)

// Access patterns for IORConfig.
const (
	PatternNN          = workload.NN
	PatternN1Segmented = workload.N1Segmented
	PatternN1Strided   = workload.N1Strided
)

// RunIOR executes an IOR-like workload on the cluster.
func RunIOR(c *Cluster, cfg IORConfig) (IORResult, error) { return workload.RunIOR(c, cfg) }
