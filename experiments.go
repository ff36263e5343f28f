package ccpfs

import (
	"fmt"
	"strings"
	"time"

	"ccpfs/internal/analysis"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/obs"
	"ccpfs/internal/sim"
	"ccpfs/internal/workload"
)

// This file implements one runner per table and figure of the paper's
// evaluation (§II-B motivation and §V). Absolute numbers cannot match
// the authors' 96-node InfiniBand/NVMe testbed — the cluster here is
// in-process with simulated devices — so each experiment reproduces the
// *shape*: which DLM wins, by roughly what factor, and how the gap moves
// with write size and stripe count. Paper-scale parameters are recorded
// in the comments; each runner's constants scale them down so the whole
// suite runs in seconds on one machine, and they are the points
// EXPERIMENTS.md publishes. Every point runs on its own seeded virtual
// clock (simulate), so every figure is a function of its seed alone, the
// same on any host.

// Row is one data point of an experiment.
type Row struct {
	Variant    string
	Pattern    string
	WriteSize  int64
	Stripes    uint32
	Bandwidth  float64 // bytes/s over PIO time (the paper's headline)
	PIO        time.Duration
	Flush      time.Duration
	Throughput float64 // ops/s
	LockRatio  float64 // locking time / IO time on one client
	Revocation time.Duration
	Cancel     time.Duration
	Other      time.Duration
}

// Experiment is a completed run: rows plus a rendered table.
type Experiment struct {
	ID    string
	Title string
	Rows  []Row
	Text  string
}

// Find returns the first row matching the filter.
func (e *Experiment) Find(filter func(Row) bool) (Row, bool) {
	for _, r := range e.Rows {
		if filter(r) {
			return r, true
		}
	}
	return Row{}, false
}

// Bandwidth returns the PIO bandwidth of the row matching the keys
// (zero keys match anything).
func (e *Experiment) Bandwidth(variant string, size int64, stripes uint32) float64 {
	r, ok := e.Find(func(r Row) bool {
		return (variant == "" || r.Variant == variant) &&
			(size == 0 || r.WriteSize == size) &&
			(stripes == 0 || r.Stripes == stripes)
	})
	if !ok {
		return 0
	}
	return r.Bandwidth
}

func (e *Experiment) String() string {
	return fmt.Sprintf("%s — %s\n%s", e.ID, e.Title, e.Text)
}

// Figure is one experiment of the suite.
type Figure struct {
	// Name is what seqbench -exp takes.
	Name string
	// ID and Title head the figure's table.
	ID, Title string
	run       func() (*Experiment, error)
}

// Run computes the figure.
func (f Figure) Run() (*Experiment, error) {
	exp, err := f.run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name, err)
	}
	exp.ID, exp.Title = f.ID, f.Title
	return exp, nil
}

// Figures lists the suite in print order. seed seeds the virtual clocks
// of the pingpong, readfan and partition points (the paper's figures run
// at paperSeed); readers lists readfan's fan-out widths (nil keeps
// 2, 4, 8).
func Figures(seed int64, readers []int) []Figure {
	if readers == nil {
		readers = []int{2, 4, 8}
	}
	return []Figure{
		{"fig4", "Fig4", "IO pattern bandwidth gap under a traditional DLM", runFig4},
		{"fig5", "Fig5", "N-1 strided bandwidth as data flushing gets cheaper", runFig5},
		{"model", "TableI", "Analytic model of lock conflict resolution (§II-C)", runModel},
		{"fig17", "Fig17", "Sequential conflicting writes: time breakdown (PW vs NBW)", runFig17},
		{"fig18", "Fig18", "Parallel conflicting writes: throughput and locking/IO ratio", runFig18},
		{"fig19a", "Fig19a", "Lock upgrading: interleaved reads/writes from one client", runFig19a},
		{"fig19b", "Fig19b", "Lock downgrading: writes spanning two stripes", runFig19b},
		{"table3", "Table3", "IOR N-1 segmented, 1 stripe, 64 KB writes", runTable3},
		{"fig20", "Fig20", "IOR N-1 strided, 1 stripe: bandwidth and PIO/F split", runFig20},
		{"fig21", "Fig21", "N-1 strided on a multi-striped file (unaligned, stripe-spanning)", runFig21},
		{"fig23", "Fig23", "Tile-IO atomic non-contiguous writes: SeqDLM vs DLM-datatype", runFig23},
		{"fig24", "Fig24", "VPIC-IO write bandwidth: ccPFS-SeqDLM vs ccPFS-DLM-Lustre", runFig24},
		{"ablation", "Ablation", "SeqDLM mechanisms disabled one at a time (N-1 strided)", runAblation},
		{"pingpong", "PingPong", "Producer-consumer exchanges: server revoke path vs client-to-client handoff",
			func() (*Experiment, error) { return runPingPong(seed) }},
		{"readfan", "ReaderFan", "Write-then-fan-out rotation: server grant path vs batched fan-out + lease propagation",
			func() (*Experiment, error) { return runReaderFan(seed, readers) }},
		{"partition", "Partition", "Lock-space partitioning: aggregate grant throughput vs lock servers",
			func() (*Experiment, error) { return runPartitionScale(seed) }},
	}
}

// BenchHardware is the scaled testbed model the experiment suite runs
// on by default. It preserves the Table I ordering that drives every
// result: cache ≫ network ≫ disk, flush time ≫ RTT ≫ lock-server
// service time.
func BenchHardware() Hardware {
	return sim.Hardware{
		RTT:            40 * time.Microsecond,
		NetBandwidth:   1e9,
		DiskBandwidth:  25e6,
		DiskLatency:    20 * time.Microsecond,
		ServerOPS:      50e3,
		CacheBandwidth: 1e9,
	}
}

// paperSeed seeds the virtual clock of every point of the paper's
// experiments (Fig. 4 to Fig. 24 and the ablation).
const paperSeed = 1

// simulate runs one measured point: it builds a cluster from opts under
// a fresh virtual clock seeded with seed, runs f on it and closes it.
// Simulated delays advance virtual time instead of sleeping, and the
// seed fixes the order of simultaneous events, so a point reproduces
// byte for byte. A fresh clock per point keeps points independent:
// variant A's event order can never leak into variant B's timeline.
func simulate(seed int64, opts cluster.Options, f func(*Cluster) (workload.Result, error)) (workload.Result, error) {
	v := sim.NewVClock(seed)
	opts.Hardware.Clock = sim.Virtual(v)
	var res workload.Result
	var err error
	v.Run(func() {
		var c *Cluster
		if c, err = cluster.New(opts); err != nil {
			return
		}
		res, err = f(c)
		c.Close()
	})
	return res, err
}

// paper runs one point of a paper figure: f on servers data servers
// running pol, on BenchHardware at paperSeed.
func paper(servers int, pol Policy, f func(*Cluster) (workload.Result, error)) (workload.Result, error) {
	return simulate(paperSeed, cluster.Options{Servers: servers, Policy: pol, Hardware: BenchHardware()}, f)
}

// ior runs one IOR point of a paper figure on servers data servers
// running pol, with 1 MiB stripes.
func ior(servers int, pol Policy, cfg workload.IORConfig) (workload.Result, error) {
	cfg.StripeSize = 1 << 20
	return paper(servers, pol, func(c *Cluster) (workload.Result, error) { return workload.RunIOR(c, cfg) })
}

func serversFor(stripes uint32) int {
	s := int(stripes)
	if s > 8 {
		s = 8
	}
	if s < 1 {
		s = 1
	}
	return s
}

// ---------------------------------------------------------------------
// Fig. 4 — motivation: the IO pattern gap on a traditional DLM.
// Paper: Lustre 2.10.8, 16 clients, 1 stripe, 1 GB/client, write sizes
// 16 KB–1 MB; N-N and N-1 segmented reach cache speed, N-1 strided
// collapses. Here: 8 clients, 3 MiB/client, 16–256 KB, DLM-basic.
func runFig4() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("pattern", "write size", "bandwidth (PIO)")
	for _, pat := range []workload.Pattern{workload.NN, workload.N1Segmented, workload.N1Strided} {
		for _, ws := range []int64{16 << 10, 64 << 10, 256 << 10} {
			res, err := ior(1, dlm.Basic(), workload.IORConfig{
				Pattern: pat, Clients: 8, WriteSize: ws, WritesPerClient: int((3 << 20) / ws), StripeCount: 1,
			})
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{Pattern: pat.String(), WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
			tb.Row(pat.String(), size(ws), bandwidth(res.BandwidthPIO()))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 5 — motivation: reducing data flushing time recovers bandwidth.
// Paper: Lustre with fakeWrite (no disk) and a first-page-only flush
// hack. Here the equivalent knobs are the simulated disk's bandwidth,
// under N-1 strided 64 KB writes from 8 clients, 1 MiB each.
func runFig5() (*Experiment, error) {
	const ws = 64 << 10
	exp := &Experiment{}
	tb := newTable("flush cost", "bandwidth (PIO)")
	variants := []struct {
		name string
		mod  func(Hardware) Hardware
	}{
		{"full flush", func(h Hardware) Hardware { return h }},
		{"1/16 flush (first-page hack)", func(h Hardware) Hardware {
			h.DiskBandwidth *= 16
			h.NetBandwidth *= 16
			return h
		}},
		{"no flush (fakeWrite)", func(h Hardware) Hardware {
			h.DiskBandwidth = 0
			h.DiskLatency = 0
			h.NetBandwidth = 0
			return h
		}},
	}
	for _, v := range variants {
		res, err := simulate(paperSeed, cluster.Options{Servers: 1, Policy: dlm.Basic(), Hardware: v.mod(BenchHardware())},
			func(c *Cluster) (workload.Result, error) {
				return workload.RunIOR(c, workload.IORConfig{
					Pattern: workload.N1Strided, Clients: 8, WriteSize: ws, WritesPerClient: (1 << 20) / ws,
					StripeSize: 1 << 20, StripeCount: 1,
				})
			})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Variant: v.name, WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
		tb.Row(v.name, bandwidth(res.BandwidthPIO()))
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// §II-C / Table I — the analytic bottleneck model, Equations (1)–(2)
// with the Table I parameters.
func runModel() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("D", "term ① (s/B)", "term ② (s/B)", "term ③ (s/B)", "bottleneck", "B_total", "w/o flush", "w/o flush+revoke")
	for _, d := range []float64{64 << 10, 256 << 10, 1 << 20} {
		p := analysis.TableI(16, d)
		t1, t2, t3 := p.Terms()
		tb.Row(size(int64(d)),
			fmt.Sprintf("%.1e", t1), fmt.Sprintf("%.1e", t2), fmt.Sprintf("%.1e", t3),
			p.Bottleneck(),
			bandwidth(p.BTotal()),
			bandwidth(p.WithoutFlush()),
			bandwidth(p.WithoutFlushAndRevocation()))
		exp.Rows = append(exp.Rows, Row{WriteSize: int64(d), Bandwidth: p.BTotal(), Variant: p.Bottleneck()})
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 17 — time breakdown of a totally conflicting sequential write
// sequence, PW vs NBW. Paper: 16 clients round-robin, 4,000 writes
// each, X = 16 KB–1 MB; for PW the conflict resolution is 67.9–69.3% of
// total time, dominated by the cancel (flush) part. Here: 8 clients,
// 96 writes in all, 16–256 KB.
func runFig17() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("mode", "write size", "total", "① revocation", "② cancel", "③ other", "resolution share")
	for _, mode := range []Mode{PW, NBW} {
		for _, ws := range []int64{16 << 10, 64 << 10, 256 << 10} {
			res, err := paper(1, dlm.SeqDLM(), func(c *Cluster) (workload.Result, error) {
				return workload.RunSequential(c, workload.SequentialConfig{
					Clients: 8, Writes: 96, WriteSize: ws, StripeSize: 1 << 20, StripeCount: 1, Mode: mode,
				})
			})
			if err != nil {
				return nil, err
			}
			// ① and ② are what the lock server attributes to revocation
			// and cancel; ③ is the rest of the run.
			total, rev, cancel := res.Total(), res.DLM.RevocationWait, res.DLM.CancelWait
			other := max(total-rev-cancel, 0)
			share := 0.0
			if total > 0 {
				share = float64(rev+cancel) / float64(total)
			}
			exp.Rows = append(exp.Rows, Row{Variant: mode.String(), WriteSize: ws, PIO: total, Revocation: rev, Cancel: cancel, Other: other})
			tb.Row(mode, size(ws), seconds(total), seconds(rev), seconds(cancel), seconds(other),
				fmt.Sprintf("%.0f%%", share*100))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 18 — one-resource throughput under contention: NBW/PW with and
// without early revocation, plus the locking/IO ratio. Paper: 16
// clients × 4,000 writes; NBW+ER beats PW by 12.9×/40.2× at 64 KB/1 MB.
// Here: 8 clients × 16 writes of 64 and 256 KB.
func runFig18() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("variant", "write size", "throughput (op/s)", "locking/IO ratio")
	variants := []struct {
		name string
		mode Mode
		er   bool
	}{
		{"PW", PW, true},
		{"PW w/o ER", PW, false},
		{"NBW", NBW, true},
		{"NBW w/o ER", NBW, false},
	}
	for _, v := range variants {
		for _, ws := range []int64{64 << 10, 256 << 10} {
			pol := dlm.SeqDLM()
			pol.EarlyRevocation = v.er
			res, err := paper(1, pol, func(c *Cluster) (workload.Result, error) {
				return workload.RunParallel(c, workload.ParallelConfig{
					Clients: 8, WritesPerClient: 16, WriteSize: ws, StripeSize: 1 << 20, StripeCount: 1, Mode: v.mode,
				})
			})
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{Variant: v.name, WriteSize: ws, Throughput: res.Throughput(), LockRatio: res.LockRatio, PIO: res.PIO, Flush: res.Flush})
			tb.Row(v.name, size(ws), fmt.Sprintf("%.0f", res.Throughput()), fmt.Sprintf("%.2f", res.LockRatio))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 19a — lock upgrading: interleaved reads/writes from one client.
// Paper: 1,000 interleaved ops; NBW+U matches PW, NBW without
// conversion collapses under continuous self-conflicts. Here: the same
// 1,000 ops of 64 KB.
func runFig19a() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("variant", "throughput (op/s)")
	variants := []struct {
		name string
		mode Mode
		conv bool
	}{
		{"PW", PW, true},
		{"NBW", NBW, false},
		{"NBW+U", NBW, true},
	}
	for _, v := range variants {
		pol := dlm.SeqDLM()
		pol.Conversion = v.conv
		res, err := paper(1, pol, func(c *Cluster) (workload.Result, error) {
			return workload.RunMixed(c, workload.MixedConfig{Ops: 1000, Size: 64 << 10, StripeSize: 1 << 20, WriteMode: v.mode})
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Variant: v.name, Throughput: res.Throughput(), PIO: res.PIO})
		tb.Row(v.name, fmt.Sprintf("%.0f", res.Throughput()))
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 19b — lock downgrading: every write spans two stripes. Paper:
// 16 clients; BW+D beats PW by 2.48×/9.40× at 64 KB/1 MB; BW−D ≈ PW.
// Here: 8 clients × 12 writes of 64 and 256 KB.
func runFig19b() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("variant", "write size", "bandwidth (PIO)")
	variants := []struct {
		name string
		mode Mode
		conv bool
	}{
		{"PW", PW, true},
		{"BW-D", BW, false},
		{"BW+D", BW, true},
	}
	for _, v := range variants {
		for _, ws := range []int64{64 << 10, 256 << 10} {
			pol := dlm.SeqDLM()
			pol.Conversion = v.conv
			res, err := paper(2, pol, func(c *Cluster) (workload.Result, error) {
				return workload.RunSpan(c, workload.SpanConfig{
					Clients: 8, WritesPerClient: 12, WriteSize: ws, StripeSize: 1 << 20, Mode: v.mode,
				})
			})
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{Variant: v.name, WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
			tb.Row(v.name, size(ws), bandwidth(res.BandwidthPIO()))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Table III + Fig. 20 — IOR on a single-striped file. Paper: 16
// clients, 2 GB/client. Table III: N-1 segmented at 64 KB, all DLMs
// within noise. Fig. 20: N-1 strided bandwidth vs write size, SeqDLM up
// to 18.1×; SeqDLM's PIO is ~5% of total vs up to 99% for baselines.
// Here: 8 clients, 1 MiB each (4 MiB for Table III), 64 and 256 KB.

type namedPolicy struct {
	name string
	pol  Policy
}

func threeDLMs() []namedPolicy {
	return []namedPolicy{
		{"SeqDLM", dlm.SeqDLM()},
		{"DLM-basic", dlm.Basic()},
		{"DLM-Lustre", dlm.Lustre()},
	}
}

// runTable3 measures IOR N-1 segmented at 64 KB on one stripe for the
// three DLMs: low contention, so everyone should be close.
func runTable3() (*Experiment, error) {
	const ws = 64 << 10
	exp := &Experiment{}
	tb := newTable("DLM", "bandwidth (PIO)", "total IO time")
	for _, np := range threeDLMs() {
		// Low contention needs enough volume per client to amortize the
		// initial lock redistribution (the paper writes 2 GB/client).
		res, err := ior(1, np.pol, workload.IORConfig{
			Pattern: workload.N1Segmented, Clients: 8, WriteSize: ws, WritesPerClient: (4 << 20) / ws, StripeCount: 1,
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Variant: np.name, WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
		tb.Row(np.name, bandwidth(res.BandwidthPIO()), seconds(res.Total()))
	}
	exp.Text = tb.String()
	return exp, nil
}

// runFig20 measures IOR N-1 strided on one stripe across write sizes
// for the three DLMs, plus the SeqDLM N-1 segmented reference; rows
// carry the PIO/F split (Fig. 20b).
func runFig20() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("variant", "write size", "bandwidth (PIO)", "PIO", "F", "PIO share")
	type variant struct {
		name    string
		pol     Policy
		pattern workload.Pattern
	}
	variants := []variant{{"SeqDLM segmented (ref)", dlm.SeqDLM(), workload.N1Segmented}}
	for _, np := range threeDLMs() {
		variants = append(variants, variant{np.name, np.pol, workload.N1Strided})
	}
	for _, v := range variants {
		for _, ws := range []int64{64 << 10, 256 << 10} {
			res, err := ior(1, v.pol, workload.IORConfig{
				Pattern: v.pattern, Clients: 8, WriteSize: ws, WritesPerClient: int((1 << 20) / ws), StripeCount: 1,
			})
			if err != nil {
				return nil, err
			}
			share := 0.0
			if res.Total() > 0 {
				share = float64(res.PIO) / float64(res.Total())
			}
			exp.Rows = append(exp.Rows, Row{Variant: v.name, Pattern: v.pattern.String(), WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
			tb.Row(v.name, size(ws), bandwidth(res.BandwidthPIO()),
				seconds(res.PIO), seconds(res.Flush), fmt.Sprintf("%.0f%%", share*100))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 21/22 — N-1 strided on a multi-striped file with unaligned
// IO500-style write sizes, some writes spanning two stripes. Paper: 96
// clients, stripes 4 and 8, write sizes 47,008 / 188,032 / 752,128 B;
// SeqDLM beats DLM-Lustre by 3.6–10.3× (4 stripes) and 2.0–6.2× (8).
// Here: 16 clients × 12 writes, the two smaller sizes kept byte-exact so
// stripe-spanning writes still occur; rows also carry the Fig. 22 PIO/F
// split.
func runFig21() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("DLM", "stripes", "write size", "bandwidth (PIO)", "PIO", "F")
	for _, stripes := range []uint32{4, 8} {
		for _, np := range threeDLMs() {
			for _, ws := range []int64{47008, 188032} {
				res, err := ior(serversFor(stripes), np.pol, workload.IORConfig{
					Pattern: workload.N1Strided, Clients: 16, WriteSize: ws, WritesPerClient: 12, StripeCount: stripes,
				})
				if err != nil {
					return nil, err
				}
				exp.Rows = append(exp.Rows, Row{Variant: np.name, Stripes: stripes, WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
				tb.Row(np.name, stripes, size(ws), bandwidth(res.BandwidthPIO()),
					seconds(res.PIO), seconds(res.Flush))
			}
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 23 — Tile-IO: atomic non-contiguous writes, SeqDLM vs
// DLM-datatype. Paper: 96 clients, 8×12 tiles of 20,480² pixels with
// 100-pixel overlap; SeqDLM wins 51×→4.1× as stripes go 1→16. Here:
// 4×3 tiles of 96² 4-byte pixels with 8-pixel overlap, 64 KB stripes.
func runFig23() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("DLM", "stripes", "bandwidth (PIO)", "total time")
	pols := []namedPolicy{
		{"SeqDLM", dlm.SeqDLM()},
		{"DLM-datatype", dlm.Datatype()},
	}
	for _, stripes := range []uint32{1, 4, 16} {
		for _, np := range pols {
			res, err := paper(serversFor(stripes), np.pol, func(c *Cluster) (workload.Result, error) {
				return workload.RunTileIO(c, workload.TileConfig{
					TilesX: 4, TilesY: 3, TileDim: 96, OverlapPx: 8, ElementSize: 4, StripeSize: 64 << 10, StripeCount: stripes,
				})
			})
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{Variant: np.name, Stripes: stripes, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
			tb.Row(np.name, stripes, bandwidth(res.BandwidthPIO()), seconds(res.Total()))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 24/25 — VPIC-IO particle writes, ccPFS-SeqDLM vs ccPFS-Lustre.
// Paper: 1,280 processes on 80 nodes, 16 data servers, 320 GB total,
// stripes 1/4/16, write sizes 256 KB and 1 MB; SeqDLM wins 6.2×/34.8×
// at 1 stripe and 1.5×/8.8× at 16 stripes. Here: 2 processes on each of
// 8 nodes, 2 iterations, chunks of 64 KB and 256 KB standing in for the
// paper's 256 KB and 1 MB; rows carry the Fig. 25 PIO/F split.
func runFig24() (*Experiment, error) {
	exp := &Experiment{}
	tb := newTable("DLM", "stripes", "write size", "bandwidth (PIO)", "PIO", "F")
	pols := []namedPolicy{
		{"ccPFS-S", dlm.SeqDLM()},
		{"ccPFS-L", dlm.Lustre()},
	}
	for _, particles := range []int{16384, 65536} { // ×4 B = 64 KB, 256 KB writes
		ws := int64(particles) * 4
		for _, stripes := range []uint32{1, 4, 16} {
			for _, np := range pols {
				res, err := paper(serversFor(stripes), np.pol, func(c *Cluster) (workload.Result, error) {
					return workload.RunVPIC(c, workload.VPICConfig{
						ClientNodes: 8, ProcsPerNode: 2, ParticlesPerIter: particles, Iterations: 2,
						Variables: 8, ElementSize: 4, StripeSize: 1 << 20, StripeCount: stripes,
					})
				})
				if err != nil {
					return nil, err
				}
				exp.Rows = append(exp.Rows, Row{Variant: np.name, Stripes: stripes, WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
				tb.Row(np.name, stripes, size(ws), bandwidth(res.BandwidthPIO()),
					seconds(res.PIO), seconds(res.Flush))
			}
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Ablation — not a paper figure, but the decomposition DESIGN.md calls
// for: the N-1 strided workload of Fig. 20 (8 clients × 16 writes of
// 64 KB) with each SeqDLM mechanism disabled in turn, bounded below by
// DLM-basic. Early grant should carry most of the win; early revocation
// and conversion are incremental.
func runAblation() (*Experiment, error) {
	const ws = 64 << 10
	exp := &Experiment{}
	tb := newTable("variant", "bandwidth (PIO)", "early grants", "early revocations", "conversions")
	variants := []struct {
		name string
		pol  Policy
	}{
		{"SeqDLM (full)", dlm.SeqDLM()},
		{"- early grant", func() Policy { p := dlm.SeqDLM(); p.EarlyGrant = false; return p }()},
		{"- early revocation", func() Policy { p := dlm.SeqDLM(); p.EarlyRevocation = false; return p }()},
		{"- conversion", func() Policy { p := dlm.SeqDLM(); p.Conversion = false; return p }()},
		{"DLM-basic (floor)", dlm.Basic()},
	}
	for _, v := range variants {
		res, err := ior(1, v.pol, workload.IORConfig{
			Pattern: workload.N1Strided, Clients: 8, WriteSize: ws, WritesPerClient: 16, StripeCount: 1,
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Variant: v.name, WriteSize: ws, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush})
		tb.Row(v.name, bandwidth(res.BandwidthPIO()),
			res.DLM.EarlyGrants, res.DLM.EarlyRevocations, res.DLM.Upgrades+res.DLM.Downgrades)
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Ping-pong — not a paper figure: the producer-consumer exchange
// pattern DESIGN.md §13's handoff fast path targets, with and without
// handoff. Two clients alternate whole-stripe writes of 64 KB over two
// stripes, 64 exchanges; the server path pays Lock + Release per lock
// exchange (~2 server RPCs), handoff delegates the transfer
// client-to-client (~1). The grant-wait percentiles give the Fig.
// 17-style wait picture before and after.
func runPingPong(seed int64) (*Experiment, error) {
	const ws, stripes = 64 << 10, 2
	exp := &Experiment{}
	tb := newTable("variant", "bandwidth (PIO)", "server RPCs/exchange", "handoffs", "reclaims",
		"grant wait p50", "grant wait p99")
	for _, v := range []struct {
		name    string
		handoff bool
	}{
		{"server path", false},
		{"handoff", true},
	} {
		var wait obs.HistSnapshot
		res, err := simulate(seed, cluster.Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: BenchHardware(), Handoff: v.handoff},
			func(c *Cluster) (workload.Result, error) {
				res, err := workload.RunPingPong(c, workload.PingPongConfig{
					Exchanges: 64, WriteSize: ws, StripeSize: 1 << 20, StripeCount: stripes,
				})
				wait = c.DLMStatsBreakdown().GrantWait
				return res, err
			})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Variant: v.name, WriteSize: ws, Stripes: stripes, Bandwidth: res.BandwidthPIO(), PIO: res.PIO, Flush: res.Flush, Throughput: res.Throughput()})
		tb.Row(v.name, bandwidth(res.BandwidthPIO()),
			fmt.Sprintf("%.2f", res.ServerRPCsPerOp()),
			res.DLM.Handoffs, res.DLM.HandoffReclaims,
			time.Duration(wait.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(wait.Quantile(0.99)).Round(time.Microsecond))
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Reader fan — not a paper figure: the write-then-fan-out rotation
// DESIGN.md §14's batched grants and lease propagation trees target.
// One writer updates a shared stripe with 64 KB, N readers re-read it,
// 32 rounds; the server path pays at least one lock RPC per
// reader-round, the fan-out path amortizes the writer's single lock RPC
// over the whole cohort. Each fan-out width is a point per variant.
func runReaderFan(seed int64, readers []int) (*Experiment, error) {
	const ws = 64 << 10
	exp := &Experiment{}
	tb := newTable("variant", "readers", "read bandwidth (PIO)", "server RPCs/reader",
		"broadcasts", "gathers", "lease grants", "ack solicits", "reclaims")
	for _, v := range []struct {
		name string
		fan  bool
	}{
		{"server path", false},
		{"fan-out", true},
	} {
		for _, n := range readers {
			opts := cluster.Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: BenchHardware(), Handoff: v.fan}
			res, err := simulate(seed, opts, func(c *Cluster) (workload.Result, error) {
				return workload.RunReaderFan(c, workload.ReaderFanConfig{Readers: n, Rounds: 32, WriteSize: ws, StripeSize: 1 << 20})
			})
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{Variant: v.name, Pattern: fmt.Sprintf("N=%d", n), WriteSize: ws, Bandwidth: res.BandwidthPIO(),
				PIO: res.PIO, Flush: res.Flush, Throughput: res.Throughput(), LockRatio: res.ServerRPCsPerOp()})
			tb.Row(v.name, n, bandwidth(res.BandwidthPIO()),
				fmt.Sprintf("%.2f", res.ServerRPCsPerOp()),
				res.DLM.Broadcasts, res.DLM.Gathers, res.DLM.LeaseGrants, res.DLM.AckSolicits, res.DLM.HandoffReclaims)
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// CSV renders the experiment's rows as comma-separated values with a
// header, for plotting outside Go. Duration columns are in seconds,
// bandwidth in bytes/second.
func (e *Experiment) CSV() string {
	var b strings.Builder
	b.WriteString("experiment,variant,pattern,write_size,stripes,bandwidth_Bps,pio_s,flush_s,throughput_ops,lock_ratio,revocation_s,cancel_s,other_s\n")
	for _, r := range e.Rows {
		fmt.Fprintf(&b, "%s,%q,%q,%d,%d,%.0f,%.6f,%.6f,%.2f,%.4f,%.6f,%.6f,%.6f\n",
			e.ID, r.Variant, r.Pattern, r.WriteSize, r.Stripes,
			r.Bandwidth, r.PIO.Seconds(), r.Flush.Seconds(),
			r.Throughput, r.LockRatio,
			r.Revocation.Seconds(), r.Cancel.Seconds(), r.Other.Seconds())
	}
	return b.String()
}
