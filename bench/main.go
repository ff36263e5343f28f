// Command bench is the repository's benchmark (see README.md and
// ../BENCHMARK.json): four closed-loop workloads against the in-process
// cluster under the virtual clock on the paper's Table I hardware, with
// end-to-end metrics from untraced runs and per-layer metrics from a
// separate traced run.
//
//	go run -C bench . --workload ior_strided --seed 1 --seconds 20 --trace 0
//	go run -C bench . -out A.json            # all four workloads, with run record
//	go run -C bench . -trace 1 -trace-out t.json -workload readfan
//	go run -C bench . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"ccpfs/internal/analysis"
	"ccpfs/internal/sim"
)

const (
	// fixedReps is K: the reps (one seed each) every simulated metric is
	// taken over. It is fixed so that a seed names one exact set of
	// simulated runs; --seconds only adds reps to the host-time medians.
	fixedReps = 16
	// maxReps keeps rep seeds (seed*1000 + r) of different --seed apart.
	maxReps = 1000
	// tracePairs is the least number of (untraced, traced, DLM-basic)
	// rep triples a traced run makes.
	tracePairs = 3
)

// repSeed is the virtual-clock seed of rep r.
func repSeed(seed int64, r int) int64 { return seed*maxReps + int64(r) }

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down. The harness prints exactly
// the metrics it lists and refuses to run if it computes any other set.
type benchSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricSpec                 `json:"end_to_end"`
	PerLayer  []metricSpec                 `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// outcome is one workload's run: what the last stdout line carries plus
// the quartiles -compare needs.
type outcome struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Reps      int                `json:"reps"`
	Samples   int                `json:"latency_samples,omitempty"`
	HostWallS float64            `json:"host_wall_s"`
	Sizes     map[string]int64   `json:"sizes"`
	Metrics   map[string]summary `json:"metrics"`
}

// record is the run record written by -out.
type record struct {
	Commit     string       `json:"git_commit"`
	GoVersion  string       `json:"go_version"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Seed       int64        `json:"seed"`
	Seeds      []int64      `json:"rep_seeds"`
	K          int          `json:"k"`
	Smoke      bool         `json:"smoke"`
	Hardware   sim.Hardware `json:"hardware"`
	Runs       []outcome    `json:"runs"`
}

type options struct {
	seed     int64
	seconds  float64
	smoke    bool
	traceOut string
	spec     *benchSpec
}

// k is the number of fixed reps at the run's scale.
func (o options) k() int {
	if o.smoke {
		return 2
	}
	return fixedReps
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed; rep r runs on virtual-clock seed seed*1000+r")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for: reps beyond the fixed K are added to the host-time medians until then")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1: write spans and counter deltas here (Chrome trace-event JSON)")
	out := flag.String("out", "", "write the run record and every metric with quartiles here (input of -compare)")
	smoke := flag.Bool("smoke", false, "tiny scale (2 reps, 4 ranks, 8 writes, 8 readers) for tests")
	specPath := flag.String("spec", "../BENCHMARK.json", "benchmark definition")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	// Exactly one simulated goroutine runs at a time, so more Ps than
	// cores only adds scheduler noise to the host-time metrics.
	runtime.GOMAXPROCS(runtime.NumCPU())
	opts := options{seed: *seed, seconds: *seconds, smoke: *smoke, traceOut: *traceOut, spec: spec}
	rec, err := runAll(os.Stdout, opts, *workload, *trace != 0)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(*out, buf, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs the named workload (or all) and prints, per workload, a
// table of metrics and then the one-line JSON result.
func runAll(w io.Writer, opts options, only string, traced bool) (*record, error) {
	k := opts.k()
	rec := &record{
		Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: opts.seed, K: k, Smoke: opts.smoke, Hardware: sim.TableI(1),
	}
	for r := 0; r < k; r++ {
		rec.Seeds = append(rec.Seeds, repSeed(opts.seed, r))
	}
	if opts.traceOut != "" && (only == "" || !traced) {
		return nil, fmt.Errorf("-trace-out needs -trace 1 and one -workload")
	}
	found := false
	for _, sp := range specs(opts.smoke) {
		if only != "" && sp.name != only {
			continue
		}
		found = true
		start := time.Now()
		var o outcome
		var err error
		defs := opts.spec.EndToEnd
		if traced {
			defs = opts.spec.PerLayer
			o, err = runTraced(w, sp, opts)
		} else {
			o, err = runEndToEnd(w, sp, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		o.Workload, o.Trace, o.HostWallS = sp.name, traced, time.Since(start).Seconds()
		o.Correct = o.Failed == 0
		o.Sizes = map[string]int64{"servers": int64(sp.servers), "stripes": int64(sp.stripes), "clients": int64(sp.clients()),
			"iters": int64(sp.iters), "op_bytes": sp.size, "ops_per_rep": int64(sp.ops()), "bytes_per_rep": int64(sp.ops()) * sp.size}
		if err := printOutcome(w, o, defs); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		rec.Runs = append(rec.Runs, o)
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	return rec, nil
}

// printOutcome prints every metric of defs by name with its unit, then
// the result line. The computed set must be exactly the defined set.
func printOutcome(w io.Writer, o outcome, defs []metricSpec) error {
	if len(o.Metrics) != len(defs) {
		var extra []string
		for name := range o.Metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return fmt.Errorf("computed %d metrics %v, BENCHMARK.json defines %d", len(o.Metrics), extra, len(defs))
	}
	fmt.Fprintf(w, "\n== %s (trace=%v, %d reps, %d latency samples, %.1f s host wall)\n",
		o.Workload, o.Trace, o.Reps, o.Samples, o.HostWallS)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]jsonMetric{}}
	for _, d := range defs {
		s, ok := o.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not computed", d.Name)
		}
		fmt.Fprintf(w, "%-32s %16.6g %-9s [q1 %.6g, q3 %.6g, n %d]\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
		line.Metrics[d.Name] = jsonMetric{s.Median, d.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// gitCommit names the commit of the checkout bench/ sits in, when that
// checkout is a git repository (git is not asked to look further up).
func gitCommit() string {
	if _, err := os.Stat("../.git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// repMetrics are the per-rep values the end-to-end summaries are built
// from.
type repMetrics struct {
	pioBW, totalBW, mean, p99                  float64
	hostUsPerOp, allocsPerOp, liveHeap, setupS float64
}

func perRep(sp spec, r repResult) repMetrics {
	ops, bytes := float64(sp.ops()), float64(sp.ops())*float64(sp.size)
	return repMetrics{
		pioBW:       bytes / mib / r.simPIO.Seconds(),
		totalBW:     bytes / mib / r.simMeasured().Seconds(),
		mean:        nsMean(r.lat) / 1e3,
		p99:         nsQuantile(r.lat, 0.99) / 1e3,
		hostUsPerOp: float64(r.hostMeasured().Nanoseconds()) / 1e3 / ops,
		allocsPerOp: float64(r.mallocs) / ops,
		liveHeap:    float64(r.liveHeap) / mib,
		setupS:      r.host[phSetup].Seconds(),
	}
}

func column(ms []repMetrics, f func(repMetrics) float64) summary {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = f(m)
	}
	return summarize(xs)
}

// sameSim reports whether two reps of one seed agree on every simulated
// quantity, which they must: a virtual run is a pure function of it.
func sameSim(a, b repResult) bool {
	if a.simPIO != b.simPIO || a.simDrain != b.simDrain || a.lockOps != b.lockOps || len(a.lat) != len(b.lat) {
		return false
	}
	for i := range a.lat {
		if a.lat[i] != b.lat[i] {
			return false
		}
	}
	return true
}

// runEndToEnd is the untraced run: one discarded warm-up rep, K fixed
// reps for the simulated metrics, then more reps for the host-time
// medians until opts.seconds.
func runEndToEnd(w io.Writer, sp spec, opts options) (outcome, error) {
	start := time.Now()
	k := opts.k()
	o := outcome{Metrics: map[string]summary{}}

	// The warm-up rep fills allocator and code caches and is discarded;
	// it runs rep 0's seed, so rep 0 doubles as the same-seed-twice
	// determinism check.
	warm, err := runRep(sp, false, repSeed(opts.seed, 0), nil)
	if err != nil {
		return o, err
	}
	var reps []repMetrics
	var lat []int64
	for r := 0; r < maxReps; r++ {
		if r >= k && time.Since(start).Seconds() >= opts.seconds {
			break
		}
		res, err := runRep(sp, false, repSeed(opts.seed, r), nil)
		if err != nil {
			return o, err
		}
		if r == 0 && !sameSim(warm, res) {
			return o, fmt.Errorf("seed %d run twice gave different simulated results (PIO %v vs %v, lock ops %d vs %d)",
				repSeed(opts.seed, 0), warm.simPIO, res.simPIO, warm.lockOps, res.lockOps)
		}
		o.Attempted += int64(sp.ops())
		o.Failed += res.failed
		reps = append(reps, perRep(sp, res))
		if r < k {
			lat = append(lat, res.lat...)
		}
	}
	o.Reps, o.Samples = len(reps), len(lat)

	fixed := reps[:k] // simulated metrics: the K fixed seeds only
	o.Metrics["sim_pio_bw_MiBps"] = column(fixed, func(m repMetrics) float64 { return m.pioBW })
	o.Metrics["sim_total_bw_MiBps"] = column(fixed, func(m repMetrics) float64 { return m.totalBW })
	// Latency statistics pool the ops of all K seeds; their quartiles
	// are those of the per-seed statistics.
	mean, p99 := column(fixed, func(m repMetrics) float64 { return m.mean }), column(fixed, func(m repMetrics) float64 { return m.p99 })
	mean.Median, p99.Median = nsMean(lat)/1e3, nsQuantile(lat, 0.99)/1e3
	o.Metrics["sim_op_mean_us"], o.Metrics["sim_op_p99_us"] = mean, p99
	host := column(reps, func(m repMetrics) float64 { return m.hostUsPerOp })
	o.Metrics["host_us_per_op"] = host
	o.Metrics["host_allocs_per_op"] = column(reps, func(m repMetrics) float64 { return m.allocsPerOp })
	o.Metrics["host_live_heap_MiB"] = column(reps, func(m repMetrics) float64 { return m.liveHeap })
	o.Metrics["setup_s"] = column(reps, func(m repMetrics) float64 { return m.setupS })

	for _, d := range opts.spec.EndToEnd {
		if d.Name == "host_us_per_op" && host.spread() > d.Bound {
			fmt.Fprintf(w, "warning: %s host_us_per_op quartile spread %.1f%% over %d reps exceeds its %.0f%% bound: the host is loaded, host-time metrics of this run are unreliable\n",
				sp.name, 100*host.spread(), host.N, 100*d.Bound)
		}
	}
	return o, nil
}

// runTraced is the traced run: triples of an untraced, a traced and a
// DLM-basic rep on the same seed. The untraced/traced host-time ratio
// is the tracing overhead, the traced reps' counter deltas and spans
// give the per-layer metrics, the DLM-basic reps the speed-up and the
// Eq. (1) comparison; the layer drives run last.
func runTraced(w io.Writer, sp spec, opts options) (outcome, error) {
	start := time.Now()
	pairs := tracePairs
	if opts.smoke {
		pairs = 1
	}
	o := outcome{Metrics: map[string]summary{}}
	if _, err := runRep(sp, false, repSeed(opts.seed, 0), nil); err != nil {
		return o, err
	}
	hw := sim.TableI(1)
	// Eq. (1) predicts the bandwidth of N conflicting writes of size D
	// under a traditional DLM; the DLM-basic reps are its measurement.
	pred := analysis.Params{N: float64(sp.clients()), D: float64(sp.size), OPS: hw.ServerOPS,
		RTT: hw.RTT.Seconds(), BNet: hw.NetBandwidth, BDisk: hw.DiskBandwidth}.BTotal() / mib

	var plain, traced []float64
	var lat []int64
	var first *tracer
	var firstRes repResult
	layers := map[string][]float64{}
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	var phases [numPhases]time.Duration
	for p := 0; p < maxReps; p++ {
		if p >= pairs && time.Since(start).Seconds() >= opts.seconds/2 {
			break
		}
		seed := repSeed(opts.seed, p)
		tr := newTracer()
		var a, b repResult
		var err error
		// Alternate which of the untraced and traced reps runs first.
		for side := 0; side < 2 && err == nil; side++ {
			if (side == 0) == (p%2 == 0) {
				a, err = runRep(sp, false, seed, nil)
			} else {
				b, err = runRep(sp, false, seed, tr)
			}
		}
		if err != nil {
			return o, err
		}
		if !sameSim(a, b) {
			return o, fmt.Errorf("seed %d: tracing changed the simulated results", seed)
		}
		basic, err := runRep(sp, true, seed, nil)
		if err != nil {
			return o, fmt.Errorf("DLM-basic pass: %w", err)
		}
		o.Attempted += 3 * int64(sp.ops())
		o.Failed += a.failed + b.failed + basic.failed
		ma, mb, mbasic := perRep(sp, a), perRep(sp, b), perRep(sp, basic)
		plain = append(plain, ma.hostUsPerOp)
		traced = append(traced, mb.hostUsPerOp)
		lat = append(lat, b.lat...)
		for name, v := range b.layers {
			add(name, v)
		}
		add("server_rpcs_per_op", float64(b.lockOps)/float64(sp.ops()))
		add("speedup_vs_basic_x", mb.pioBW/mbasic.pioBW)
		add("analysis.eq1_gap_frac", mbasic.pioBW/pred-1)
		ms := func(id int) float64 { return float64(tr.hostDur(id)) / 1e6 }
		add("setup.cluster_new_ms", ms(b.spans.clusterNew))
		add("setup.clients_ms", ms(b.spans.clients))
		add("setup.open_ms", ms(b.spans.open))
		add("teardown.ms", float64(b.host[phTeardown])/1e6)
		for i, d := range b.host {
			phases[i] += d
		}
		if first == nil {
			first, firstRes = tr, b
		}
	}
	o.Reps, o.Samples = 3*len(plain), len(lat)
	for name, vs := range layers {
		o.Metrics[name] = summarize(vs)
	}
	one := func(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: 1} }
	o.Metrics["client.op_p50_us"] = one(nsQuantile(lat, 0.5) / 1e3)
	o.Metrics["analysis.eq1_pred_MiBps"] = one(pred)

	var rep time.Duration
	for _, d := range phases {
		rep += d
	}
	for i, d := range phases {
		o.Metrics["phase."+phaseNames[i]+"_frac"] = one(d.Seconds() / rep.Seconds())
	}
	o.Metrics["trace.overhead_frac"] = one(summarize(traced).Median/summarize(plain).Median - 1)
	o.Metrics["failed_op_frac"] = one(float64(o.Failed) / float64(o.Attempted))

	drives, err := runDrives(opts.smoke)
	if err != nil {
		return o, err
	}
	for name, v := range drives {
		o.Metrics[name] = one(v)
	}

	// Where a rep's host time went: each phase's duration and what is
	// left of it once the spans of the calls made inside it are taken
	// out (the harness's own loops and, in pio and drain, the simulator
	// running other goroutines between calls).
	fmt.Fprintf(w, "\n%s: host time of the phases of one traced rep (seed %d)\n", sp.name, repSeed(opts.seed, 0))
	for id, s := range first.spans {
		if s.Parent == firstRes.spans.rep {
			fmt.Fprintf(w, "  %-10s %10.3f ms  self %10.3f ms\n", s.Name, float64(first.hostDur(id))/1e6, float64(first.selfTime(id))/1e6)
		}
	}
	if opts.traceOut != "" {
		if err := first.writeChrome(opts.traceOut, firstRes.layers); err != nil {
			return o, err
		}
		fmt.Fprintf(w, "  %d spans written to %s\n", len(first.spans), opts.traceOut)
	}
	return o, nil
}
