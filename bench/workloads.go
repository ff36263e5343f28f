package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

const (
	stripeSize = 1 << 20
	mib        = float64(1 << 20)
)

type pattern int

const (
	strided pattern = iota
	segmented
	readfan
	pingpong
)

// spec sizes one workload. The access patterns are those of
// internal/workload (IOR N-1 strided/segmented, RunReaderFan,
// RunPingPong); the op loops live here so the harness can time and
// check every call.
type spec struct {
	name    string
	pat     pattern
	servers int
	stripes uint32
	// ranks is the number of clients issuing measured ops: IOR ranks,
	// readfan readers (one more client writes), pingpong's two sides.
	ranks int
	// iters is writes per rank, readfan rounds, or pingpong exchanges.
	iters int
	size  int64
	// handoff and fanout are the cluster's delegation options.
	handoff, fanout bool
}

// specs returns the four workloads at full or smoke scale.
func specs(smoke bool) []spec {
	ranks, writes, readers, rounds, exchanges := 16, 64, 64, 32, 512
	if smoke {
		ranks, writes, readers, rounds, exchanges = 4, 8, 8, 8, 8
	}
	return []spec{
		{name: "ior_strided", pat: strided, servers: 4, stripes: 4, ranks: ranks, iters: writes, size: 64 << 10},
		{name: "ior_segmented", pat: segmented, servers: 4, stripes: 4, ranks: ranks, iters: writes, size: 64 << 10},
		{name: "readfan", pat: readfan, servers: 1, stripes: 1, ranks: readers, iters: rounds, size: 64 << 10, handoff: true, fanout: true},
		{name: "pingpong", pat: pingpong, servers: 1, stripes: 2, ranks: 2, iters: exchanges, size: 64 << 10, handoff: true},
	}
}

// clients is how many client nodes the workload mounts.
func (sp spec) clients() int {
	if sp.pat == readfan {
		return sp.ranks + 1
	}
	return sp.ranks
}

// ops is the number of measured client calls in one rep: every write
// of the IOR and pingpong patterns, every reader read of readfan (the
// writer's call is reported on its own as dlm.writer_op_p50_us).
func (sp spec) ops() int {
	if sp.pat == pingpong {
		return sp.iters * int(sp.stripes)
	}
	return sp.ranks * sp.iters
}

// written is the bytes the rep's writers hand to the file system, the
// quantity the flush oracle balances against the servers' counters.
func (sp spec) written() int64 {
	if sp.pat == readfan {
		return int64(sp.iters) * sp.size
	}
	return int64(sp.ops()) * sp.size
}

// inputs is everything a rep derives from its seed besides the virtual
// clock's own jitter: which slot of the access pattern each rank takes
// (and so which rank starts a pingpong, and the order readers are
// released in) and a salt that makes block contents differ per seed.
type inputs struct {
	slot []int
	salt byte
}

func genInputs(sp spec, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	return inputs{slot: rng.Perm(sp.ranks), salt: byte(rng.Intn(256))}
}

// offset is the file offset of iteration k for the rank holding slot.
func (sp spec) offset(slot, k int) int64 {
	if sp.pat == segmented {
		return int64(slot)*sp.size*int64(sp.iters) + int64(k)*sp.size
	}
	return int64(k*sp.ranks+slot) * sp.size
}

// block returns rank's payload: a byte pattern unique per rank and
// seed. stamp marks it with an op index at both ends, for blocks that
// are overwritten (pingpong, readfan) and must be told apart by age.
func block(rank int, salt byte, size int64) []byte {
	buf := make([]byte, size)
	for b := range buf {
		buf[b] = byte(rank+b) ^ salt
	}
	return buf
}

func stamp(buf []byte, op int) {
	binary.LittleEndian.PutUint64(buf, uint64(op))
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], uint64(op))
}

// phase indexes the host-time phases of a rep.
type phase int

const (
	phSetup phase = iota
	phPIO
	phDrain
	phVerify
	phTeardown
	numPhases
)

var phaseNames = [numPhases]string{"setup", "pio", "drain", "verify", "teardown"}

// repResult is what one rep measured.
type repResult struct {
	simPIO, simDrain time.Duration
	lat              []int64 // simulated ns of each measured op
	writerLat        []int64 // readfan: simulated ns of the writer's calls
	lockOps          int64   // Σ dlm.lock_ops over servers, PIO + drain
	failed           int64   // op errors + bad blocks + oracle violations

	host     [numPhases]time.Duration
	mallocs  uint64
	liveHeap uint64

	// Traced reps only.
	layers map[string]float64
	spans  struct{ rep, clusterNew, clients, open int }
}

func (r repResult) hostMeasured() time.Duration { return r.host[phPIO] + r.host[phDrain] }
func (r repResult) simMeasured() time.Duration  { return r.simPIO + r.simDrain }

// oracleFault, when set, lets a test corrupt the first read-back block
// before it is checked, to show that the checker fires.
var oracleFault func(block []byte)

// runRep runs one rep of sp on a fresh virtual clock and a fresh
// cluster: set-up, measured phase (PIO + drain), verify, teardown. The
// cluster runs SeqDLM with the workload's delegation options, or, when
// basic is set, DLM-basic on the plain server path.
func runRep(sp spec, basic bool, seed int64, tr *tracer) (repResult, error) {
	v := sim.NewVClock(seed)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	opts := cluster.Options{Servers: sp.servers, Policy: dlm.SeqDLM(), Hardware: hw, Handoff: sp.handoff, ReaderFanout: sp.fanout}
	if basic {
		opts.Policy, opts.Handoff, opts.ReaderFanout = dlm.Basic(), false, false
	}
	in := genInputs(sp, seed)
	var res repResult
	var err error
	v.Run(func() { res, err = runInCluster(sp, opts, in, tr) })
	return res, err
}

func runInCluster(sp spec, opts cluster.Options, in inputs, tr *tracer) (res repResult, err error) {
	hw := opts.Hardware
	clk := hw.Clock
	ctx := context.Background()
	repSpan := tr.begin(clk, "rep:"+sp.name, -1, -1, 0)
	res.spans.rep = repSpan

	// Set-up: cluster, clients, one open file per client.
	t0 := time.Now()
	ph := tr.begin(clk, "setup", repSpan, -1, 0)
	id := tr.begin(clk, "cluster.New", ph, -1, 0)
	res.spans.clusterNew = id
	c, err := cluster.New(opts)
	tr.end(clk, id)
	if err != nil {
		return res, fmt.Errorf("cluster.New: %w", err)
	}
	var clients []*client.Client
	closeAll := func() {
		for rank, cl := range clients {
			id := tr.begin(clk, "Client.Close", ph, rank, 0)
			cl.Close()
			tr.end(clk, id)
		}
		id := tr.begin(clk, "Cluster.Close", ph, -1, 0)
		c.Close()
		tr.end(clk, id)
	}
	res.spans.clients = tr.begin(clk, "clients", ph, -1, 0)
	for i := 0; i < sp.clients(); i++ {
		id := tr.begin(clk, "Cluster.NewClient", res.spans.clients, i, 0)
		cl, err := c.NewClient(fmt.Sprintf("%s-%d", sp.name, i))
		tr.end(clk, id)
		if err != nil {
			closeAll()
			return res, fmt.Errorf("NewClient %d: %w", i, err)
		}
		clients = append(clients, cl)
	}
	tr.end(clk, res.spans.clients)
	res.spans.open = tr.begin(clk, "opens", ph, -1, 0)
	files := make([]*client.File, len(clients))
	for i, cl := range clients {
		id := tr.begin(clk, "Client.OpenOrCreate", res.spans.open, i, 0)
		files[i], err = cl.OpenOrCreate("/"+sp.name, stripeSize, sp.stripes)
		tr.end(clk, id)
		if err != nil {
			closeAll()
			return res, fmt.Errorf("OpenOrCreate %d: %w", i, err)
		}
	}
	tr.end(clk, res.spans.open)
	tr.end(clk, ph)
	res.host[phSetup] = time.Since(t0)

	var before, mid, after *counters
	if tr != nil {
		before = snapshot(c, clients)
	}
	lockOps0 := c.DLMStats().LockOps
	// Start every measured phase from a collected heap, so that how much
	// collector work falls inside it does not depend on the rep before.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// PIO: the closed op loops.
	t0 = time.Now()
	s0 := clk.Now()
	ph = tr.begin(clk, "pio", repSpan, -1, 0)
	run := runner{sp: sp, in: in, clk: clk, tr: tr, ph: ph, files: files, res: &res}
	want := run.pio(ctx)
	tr.end(clk, ph)
	res.simPIO = clk.Since(s0)
	res.host[phPIO] = time.Since(t0)
	if tr != nil {
		mid = snapshot(c, clients)
	}

	// Drain: every client flushes its dirty data and gives up its locks.
	t0 = time.Now()
	s0 = clk.Now()
	ph = tr.begin(clk, "drain", repSpan, -1, 0)
	grp := sim.NewGroup(clk)
	for i := range clients {
		grp.Go(func() {
			id := tr.begin(clk, "File.Fsync", ph, i, 0)
			ferr := files[i].Fsync()
			tr.end(clk, id)
			id = tr.begin(clk, "LockClient.ReleaseAll", ph, i, 0)
			rerr := clients[i].Locks().ReleaseAll(ctx)
			tr.end(clk, id)
			if ferr != nil || rerr != nil {
				run.fail(1)
			}
		})
	}
	grp.Wait()
	tr.end(clk, ph)
	res.simDrain = clk.Since(s0)
	res.host[phDrain] = time.Since(t0)

	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.lockOps = c.DLMStats().LockOps - lockOps0
	if tr != nil {
		after = snapshot(c, clients)
	}
	// Two collections: the first only moves sync.Pool contents (wire
	// frames, response channels) to the pools' victim caches, the
	// second frees them, so the figure is the data structures' own.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveHeap = m1.HeapInuse

	// Verify: the servers must have accounted for every written byte,
	// and a fresh client must read back what the last writer of each
	// block wrote.
	t0 = time.Now()
	ph = tr.begin(clk, "verify", repSpan, -1, 0)
	if got := c.FlushedBytes() + c.DiscardedBytes(); got != sp.written() {
		run.fail(1)
	}
	if err := run.readBack(c, want, ph); err != nil {
		closeAll()
		return res, err
	}
	tr.end(clk, ph)
	res.host[phVerify] = time.Since(t0)

	t0 = time.Now()
	ph = tr.begin(clk, "teardown", repSpan, -1, 0)
	closeAll()
	tr.end(clk, ph)
	res.host[phTeardown] = time.Since(t0)
	tr.end(clk, repSpan)

	if tr != nil {
		res.layers = layerMetrics(sp, hw, &res, before, mid, after)
	}
	return res, nil
}

// expect is one block a fresh client must read back after the drain.
type expect struct {
	off  int64
	data []byte
}

// runner carries a rep's op loops.
type runner struct {
	sp    spec
	in    inputs
	clk   sim.Clock
	tr    *tracer
	ph    int
	files []*client.File
	res   *repResult

	mu sync.Mutex // guards res.failed across rank goroutines
}

func (r *runner) fail(n int64) {
	r.mu.Lock()
	r.res.failed += n
	r.mu.Unlock()
}

// write times one WriteAtOpts call on the simulated clock.
func (r *runner) write(ctx context.Context, rank, op int, buf []byte, off int64, o client.WriteOptions) int64 {
	id := r.tr.begin(r.clk, "File.WriteAtOpts", r.ph, rank, op)
	t := r.clk.Now()
	_, err := r.files[rank].WriteAtOpts(ctx, buf, off, o)
	d := r.clk.Since(t)
	r.tr.end(r.clk, id)
	if err != nil {
		r.fail(1)
	}
	return int64(d)
}

// pio runs the workload's op loops and returns the blocks the file
// must hold afterwards.
func (r *runner) pio(ctx context.Context) []expect {
	sp := r.sp
	r.res.lat = make([]int64, sp.ops())
	switch sp.pat {
	case strided, segmented:
		// Every rank writes its blocks back to back, as an MPI rank
		// does; all ranks run at once.
		want := make([]expect, 0, sp.ops())
		bufs := make([][]byte, sp.ranks)
		for rank := range bufs {
			bufs[rank] = block(rank, r.in.salt, sp.size)
			for k := 0; k < sp.iters; k++ {
				want = append(want, expect{sp.offset(r.in.slot[rank], k), bufs[rank]})
			}
		}
		grp := sim.NewGroup(r.clk)
		for rank := 0; rank < sp.ranks; rank++ {
			grp.Go(func() {
				for k := 0; k < sp.iters; k++ {
					r.res.lat[rank*sp.iters+k] = r.write(ctx, rank, k, bufs[rank],
						sp.offset(r.in.slot[rank], k), client.WriteOptions{})
				}
			})
		}
		grp.Wait()
		return want

	case pingpong:
		// The two sides take turns; a turn writes one block on every
		// stripe under a whole-stripe NBW lock, so each stripe's lock
		// changes hands once per exchange.
		bufs := [][]byte{block(0, r.in.salt, sp.size), block(1, r.in.salt, sp.size)}
		want := make([]expect, sp.stripes)
		op := 0
		for k := 0; k < sp.iters; k++ {
			side := r.in.slot[k%2]
			for s := 0; s < int(sp.stripes); s++ {
				stamp(bufs[side], op)
				r.res.lat[op] = r.write(ctx, side, op, bufs[side], int64(s)*stripeSize,
					client.WriteOptions{Mode: dlm.NBW, LockWholeStripe: true})
				if k == sp.iters-1 {
					want[s] = expect{int64(s) * stripeSize, bytes.Clone(bufs[side])}
				}
				op++
			}
		}
		return want

	default: // readfan
		// The last client writes a round-stamped block under a whole-stripe
		// NBW lock, then every reader reads it and checks the stamp;
		// a round ends with its slowest reader.
		writer := sp.ranks
		wbuf := block(writer, r.in.salt, sp.size)
		rbufs := make([][]byte, sp.ranks)
		for i := range rbufs {
			rbufs[i] = make([]byte, sp.size)
		}
		for round := 0; round < sp.iters; round++ {
			stamp(wbuf, round)
			r.res.writerLat = append(r.res.writerLat, r.write(ctx, writer, round, wbuf, 0,
				client.WriteOptions{Mode: dlm.NBW, LockWholeStripe: true}))
			grp := sim.NewGroup(r.clk)
			for _, rank := range r.in.slot {
				grp.Go(func() {
					id := r.tr.begin(r.clk, "File.ReadAt", r.ph, rank, round)
					t := r.clk.Now()
					_, err := r.files[rank].ReadAt(rbufs[rank], 0)
					r.res.lat[round*sp.ranks+rank] = int64(r.clk.Since(t))
					r.tr.end(r.clk, id)
					if (err != nil && err != io.EOF) || !bytes.Equal(rbufs[rank], wbuf) {
						r.fail(1)
					}
				})
			}
			grp.Wait()
		}
		return []expect{{0, bytes.Clone(wbuf)}}
	}
}

// readBack reads every expected block through a client that took no
// part in the run and counts the blocks that differ.
func (r *runner) readBack(c *cluster.Cluster, want []expect, ph int) error {
	cl, err := c.NewClient(r.sp.name + "-verify")
	if err != nil {
		return fmt.Errorf("verify client: %w", err)
	}
	defer cl.Close()
	f, err := cl.Open("/" + r.sp.name)
	if err != nil {
		return fmt.Errorf("verify open: %w", err)
	}
	buf := make([]byte, r.sp.size)
	for i, w := range want {
		id := r.tr.begin(r.clk, "File.ReadAt", ph, -1, i)
		_, err := f.ReadAt(buf, w.off)
		r.tr.end(r.clk, id)
		if oracleFault != nil && i == 0 {
			oracleFault(buf)
		}
		if (err != nil && err != io.EOF) || !bytes.Equal(buf, w.data) {
			r.res.failed++
		}
	}
	return nil
}
