// Package workload generates the IO patterns of the paper's evaluation —
// IOR-like N-N / N-1 segmented / N-1 strided, the totally-conflicting
// sequential and parallel microbenchmarks of Fig. 16, the Tile-IO
// non-contiguous atomic writes, and the VPIC-IO particle workload — and
// runs them against an in-process cluster, reporting the PIO (parallel
// IO) and F (flush) times the paper's figures are built from.
package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

// Pattern is a parallel IO access pattern (Fig. 2).
type Pattern int

// Access patterns.
const (
	// NN is file-per-process: each client writes its own file.
	NN Pattern = iota
	// N1Segmented is shared-file with one contiguous segment per client.
	N1Segmented
	// N1Strided is shared-file with interleaved blocks per iteration —
	// the high-contention pattern that breaks traditional DLMs.
	N1Strided
)

func (p Pattern) String() string {
	switch p {
	case NN:
		return "N-N"
	case N1Segmented:
		return "N-1 segmented"
	case N1Strided:
		return "N-1 strided"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Result reports one run. The paper records the time spent inside write
// calls as PIO (what applications see, data landing in client caches)
// and the tail drain to data servers as F. Every time is read on the
// cluster's clock: simulated time when it is virtual.
type Result struct {
	// PIO is the simulated time of the access phase.
	PIO time.Duration
	// Flush is the simulated drain time (fsync + lock release at the end).
	Flush time.Duration
	// Restart is the simulated time of RunCheckpoint's read-back phase
	// (zero for every other runner).
	Restart time.Duration
	// Bytes is the total data moved (written; read, for RunReaderFan).
	Bytes int64
	// Ops is the total operations issued.
	Ops int64
	// DLM is the lock servers' counter delta from the start of the
	// access phase to the end of the drain: LockOps is what the run cost
	// in server RPCs, RevocationWait and CancelWait are Fig. 17's ① and
	// ②, Handoffs and Gathers say how often delegation carried it.
	DLM dlm.Snapshot
	// LockRatio is locking time / IO time on client 0 (Fig. 18b).
	LockRatio float64
	// Superseded is the bytes the clients' own later writes replaced in
	// their page caches before a flush collected them (pagecache
	// SupersededBytes): written, never flushed, so the data servers'
	// flushed + discarded bytes fall short of Bytes by exactly this.
	Superseded int64
}

// Total returns PIO + Flush.
func (r Result) Total() time.Duration { return r.PIO + r.Flush }

// BandwidthPIO returns bytes per second over the PIO time — the paper's
// headline "bandwidth calculated using the PIO time".
func (r Result) BandwidthPIO() float64 {
	if r.PIO <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.PIO.Seconds()
}

// BandwidthTotal returns bytes per second over the total IO time.
func (r Result) BandwidthTotal() float64 {
	if r.Total() <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Total().Seconds()
}

// Throughput returns operations per second over the PIO time.
func (r Result) Throughput() float64 {
	if r.PIO <= 0 {
		return 0
	}
	return float64(r.Ops) / r.PIO.Seconds()
}

// ServerRPCsPerOp returns the run's lock-server RPCs per operation: per
// lock exchange for RunPingPong (~2 on the revoke path, ~1 once handoff
// delegates the transfer), per reader-round for RunReaderFan (>= 1 on
// the server path, fractional once leases propagate peer-to-peer).
func (r Result) ServerRPCsPerOp() float64 {
	if r.Ops <= 0 {
		return 0
	}
	return float64(r.DLM.LockOps) / float64(r.Ops)
}

// session is what every runner shares: n fresh clients of one cluster,
// each with one open file, and the phases run over them.
type session struct {
	c       *cluster.Cluster
	clk     sim.Clock
	clients []*client.Client
	files   []*client.File
}

// open creates n clients named prefix-0, prefix-1, … and opens path(i)
// on client i with the given striping. The caller closes the session.
func open(c *cluster.Cluster, n int, prefix string, stripeSize int64, stripes uint32, path func(i int) string) (*session, error) {
	clients, err := c.Clients(n, prefix)
	if err != nil {
		return nil, err
	}
	s := &session{c: c, clk: c.Clock(), clients: clients, files: make([]*client.File, n)}
	for i, cl := range clients {
		if s.files[i], err = cl.OpenOrCreate(path(i), stripeSize, stripes); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// shared names one file for every client.
func shared(path string) func(int) string { return func(int) string { return path } }

// close closes every client.
func (s *session) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
}

// timed runs f and returns the time it took.
func (s *session) timed(f func() error) (time.Duration, error) {
	start := s.clk.Now()
	err := f()
	return s.clk.Since(start), err
}

// parallel runs rank(0), …, rank(n-1) as concurrent coroutines, waits
// for all of them and returns the first error.
func (s *session) parallel(n int, rank func(i int) error) error {
	errs := make(chan error, n)
	grp := sim.NewGroup(s.clk)
	for i := 0; i < n; i++ {
		grp.Go(func() {
			if err := rank(i); err != nil {
				errs <- err
			}
		})
	}
	grp.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// run is a runner's measured part. It times the access phase f into
// res.PIO; if f succeeds, it then drains, flushing every client's dirty
// data and releasing all its locks, timed into res.Flush (the paper's F
// time), and fills in the rest of res. res.DLM's window opens as f
// starts and closes after the drain.
func (s *session) run(res *Result, f func() error) error {
	before := s.c.DLMStats()
	var err error
	if res.PIO, err = s.timed(f); err != nil {
		return err
	}
	res.Flush, err = s.timed(func() error {
		return s.parallel(len(s.clients), func(i int) error {
			err := s.files[i].Fsync()
			return errors.Join(err, s.clients[i].Locks().ReleaseAll(context.Background()))
		})
	})
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	res.DLM = s.c.DLMStats().Sub(before)
	if io := s.clients[0].Stats.IONs.Load(); io > 0 {
		res.LockRatio = float64(s.clients[0].Stats.LockNs.Load()) / float64(io)
	}
	for _, cl := range s.clients {
		res.Superseded += cl.PageCache().SupersededBytes()
	}
	return nil
}

// IORConfig parameterizes an IOR-like run.
type IORConfig struct {
	Pattern         Pattern
	Clients         int
	WriteSize       int64
	WritesPerClient int
	StripeSize      int64
	StripeCount     uint32
	// Path names the shared file (or the per-client file prefix for NN).
	Path string
	// Mode forces a lock mode; zero follows the selection rules.
	Mode dlm.Mode
	// Verify reads every block back from a fresh client after the drain
	// and checks it against the writer's pattern — the IO500-style
	// correctness pass. Verification time is not part of the Result.
	Verify bool
}

// offset returns the file offset of iteration k for rank i.
func (cfg IORConfig) offset(rank, k int) int64 {
	switch cfg.Pattern {
	case NN, N1Segmented:
		base := int64(0)
		if cfg.Pattern == N1Segmented {
			base = int64(rank) * cfg.WriteSize * int64(cfg.WritesPerClient)
		}
		return base + int64(k)*cfg.WriteSize
	default: // N1Strided
		return int64(k*cfg.Clients+rank) * cfg.WriteSize
	}
}

// RunIOR executes the workload on fresh clients of c and returns the
// timing. Each client writes WritesPerClient × WriteSize bytes; the
// drain phase then flushes all dirty data and releases all locks.
func RunIOR(c *cluster.Cluster, cfg IORConfig) (Result, error) {
	if cfg.Path == "" {
		cfg.Path = "/ior"
	}
	s, err := open(c, cfg.Clients, "ior", cfg.StripeSize, cfg.StripeCount, cfg.path)
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	res := Result{Ops: int64(cfg.Clients * cfg.WritesPerClient)}
	res.Bytes = res.Ops * cfg.WriteSize
	err = s.run(&res, func() error {
		return s.parallel(cfg.Clients, func(i int) error {
			buf := make([]byte, cfg.WriteSize)
			for b := range buf {
				buf[b] = byte(i + b)
			}
			for k := 0; k < cfg.WritesPerClient; k++ {
				if _, err := s.files[i].WriteAtOpts(context.Background(), buf, cfg.offset(i, k), client.WriteOptions{Mode: cfg.Mode}); err != nil {
					return fmt.Errorf("rank %d write %d: %w", i, k, err)
				}
			}
			return nil
		})
	})
	if err != nil || !cfg.Verify {
		return res, err
	}
	return res, verifyIOR(c, cfg)
}

// path names rank i's file: its own for N-N, the shared one otherwise.
func (cfg IORConfig) path(i int) string {
	if cfg.Pattern == NN {
		return fmt.Sprintf("%s-%d", cfg.Path, i)
	}
	return cfg.Path
}

// verifyIOR reads every block back from a fresh client and checks the
// deterministic rank pattern.
func verifyIOR(c *cluster.Cluster, cfg IORConfig) error {
	cl, err := c.NewClient("ior-verify")
	if err != nil {
		return err
	}
	defer cl.Close()
	buf := make([]byte, cfg.WriteSize)
	want := make([]byte, cfg.WriteSize)
	var f *client.File
	for i := 0; i < cfg.Clients; i++ {
		if f == nil || cfg.Pattern == NN {
			if f, err = cl.Open(cfg.path(i)); err != nil {
				return err
			}
		}
		for b := range want {
			want[b] = byte(i + b)
		}
		for k := 0; k < cfg.WritesPerClient; k++ {
			off := cfg.offset(i, k)
			if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
				return fmt.Errorf("verify rank %d iter %d: %w", i, k, err)
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("verify rank %d iter %d at offset %d: data mismatch", i, k, off)
			}
		}
	}
	return nil
}

// SequentialConfig parameterizes the totally-conflicting sequential
// write sequence of Fig. 16(a): clients write to a shared file strictly
// in round-robin order, each write locking the whole stripe range.
type SequentialConfig struct {
	Clients     int
	Writes      int // total writes across all clients
	WriteSize   int64
	StripeSize  int64
	StripeCount uint32
	Mode        dlm.Mode // NBW vs PW is the Fig. 17 comparison
}

// RunSequential executes the round-robin conflicting sequence. The
// result's DLM.RevocationWait and DLM.CancelWait are the server-side
// parts ① and ② of the paper's time breakdown.
func RunSequential(c *cluster.Cluster, cfg SequentialConfig) (Result, error) {
	s, err := open(c, cfg.Clients, "seq", cfg.StripeSize, cfg.StripeCount, shared("/seq"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	res := Result{Ops: int64(cfg.Writes), Bytes: int64(cfg.Writes) * cfg.WriteSize}
	buf := make([]byte, cfg.WriteSize)
	// The MPI_Send/MPI_Recv token ring of the paper: one write at a
	// time, rank after rank.
	err = s.run(&res, func() error {
		for k := 0; k < cfg.Writes; k++ {
			if _, err := s.files[k%cfg.Clients].WriteAtOpts(context.Background(), buf, 0, client.WriteOptions{
				Mode:            cfg.Mode,
				LockWholeStripe: true,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// ParallelConfig parameterizes the Fig. 16(b) throughput test: clients
// independently hammer one lock resource, each write locking the whole
// range, so conflicting requests pile up at the server and early
// revocation has work to do.
type ParallelConfig struct {
	Clients         int
	WritesPerClient int
	WriteSize       int64
	StripeSize      int64
	StripeCount     uint32
	Mode            dlm.Mode
}

// RunParallel executes the independent-writers throughput test; the
// result's LockRatio is Fig. 18(b)'s, measured on client 0 as in the
// paper.
func RunParallel(c *cluster.Cluster, cfg ParallelConfig) (Result, error) {
	s, err := open(c, cfg.Clients, "par", cfg.StripeSize, cfg.StripeCount, shared("/par"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	res := Result{Ops: int64(cfg.Clients * cfg.WritesPerClient)}
	res.Bytes = res.Ops * cfg.WriteSize
	err = s.run(&res, func() error {
		return s.parallel(cfg.Clients, func(i int) error {
			buf := make([]byte, cfg.WriteSize)
			for k := 0; k < cfg.WritesPerClient; k++ {
				if _, err := s.files[i].WriteAtOpts(context.Background(), buf, 0, client.WriteOptions{
					Mode:            cfg.Mode,
					LockWholeStripe: true,
				}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	return res, err
}

// MixedConfig parameterizes the Fig. 19(a) lock-upgrading test: one
// client interleaves writes and reads on a single-striped file.
type MixedConfig struct {
	Ops        int // total operations (alternating write, read)
	Size       int64
	StripeSize int64
	WriteMode  dlm.Mode // PW or NBW; reads always use PR
}

// RunMixed executes the interleaved read/write sequence and returns the
// operation throughput.
func RunMixed(c *cluster.Cluster, cfg MixedConfig) (Result, error) {
	s, err := open(c, 1, "mixed", cfg.StripeSize, 1, shared("/mixed"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()
	f := s.files[0]
	buf := make([]byte, cfg.Size)
	// Prime the file so reads have data.
	if _, err := f.WriteAtOpts(context.Background(), buf, 0, client.WriteOptions{Mode: cfg.WriteMode}); err != nil {
		return Result{}, err
	}
	res := Result{Ops: int64(cfg.Ops), Bytes: int64(cfg.Ops/2) * cfg.Size}
	err = s.run(&res, func() error {
		for k := 0; k < cfg.Ops; k++ {
			var err error
			if k%2 == 0 {
				_, err = f.WriteAtOpts(context.Background(), buf, 0, client.WriteOptions{Mode: cfg.WriteMode})
			} else {
				_, err = f.ReadAt(buf, 0)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// SpanConfig parameterizes the Fig. 19(b) lock-downgrading test: every
// write spans two stripes, so each needs both stripes' write locks
// simultaneously.
type SpanConfig struct {
	Clients         int
	WritesPerClient int
	WriteSize       int64
	StripeSize      int64
	Mode            dlm.Mode // BW or PW
}

// RunSpan executes the two-stripe spanning write test.
func RunSpan(c *cluster.Cluster, cfg SpanConfig) (Result, error) {
	s, err := open(c, cfg.Clients, "span", cfg.StripeSize, 2, shared("/span"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()
	// A write centred on the stripe boundary spans both stripes.
	off := max(cfg.StripeSize-cfg.WriteSize/2, 0)

	res := Result{Ops: int64(cfg.Clients * cfg.WritesPerClient)}
	res.Bytes = res.Ops * cfg.WriteSize
	err = s.run(&res, func() error {
		return s.parallel(cfg.Clients, func(i int) error {
			buf := make([]byte, cfg.WriteSize)
			for k := 0; k < cfg.WritesPerClient; k++ {
				if _, err := s.files[i].WriteAtOpts(context.Background(), buf, off, client.WriteOptions{Mode: cfg.Mode}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	return res, err
}
