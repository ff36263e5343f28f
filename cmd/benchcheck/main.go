// Command benchcheck is the CI regression gate for the DLM grant
// engine. It re-runs the grant-path, revocation-storm, and delegation
// benchmarks in-process and fails (exit 1) when
//
//   - the interval index no longer beats the linear-scan baseline by
//     the required floor (-minspeedup), or
//   - the client's cached-lock hit path allocates, or
//   - four capacity-capped partitioned lock servers fail to carry the
//     grant workload at least 2x faster per op than one server, or
//   - the ping-pong handoff benchmark spends more than ~1.2 server RPCs
//     per lock exchange, or its server-path contrast drops below 1.5
//     (meaning the revoke path stopped being exercised), or
//   - the reader fan-out rotation spends more than 0.25 server RPCs per
//     reader-round at eight readers with delegation on, or its
//     server-path contrast drops below 0.9 per reader-round, or
//   - a benchmark pair ratio regressed by more than -threshold against
//     the checked-in BENCH_dlm.json baseline.
//
// Only pair ratios (Linear/Indexed, Unbatched/Batched, Scale1/Scale4)
// are compared: ratios measured on the same machine in the same run are
// hardware-independent, so the gate is meaningful on CI runners that
// are slower or faster than the machine that produced the baseline.
// Absolute ns/op numbers are printed but never gated.
//
// Each benchmark runs three times and the minimum ns/op is kept,
// which filters scheduler noise out of the gated ratios. -update
// re-measures the gated benchmarks the same way and writes them back
// into the baseline file (leaving seqbench-only entries untouched),
// so the recorded ratios are always produced by the same estimator
// the gate reads them with.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ccpfs"
	"ccpfs/internal/perfbench"
)

// report mirrors seqbench's -benchjson schema so BENCH_dlm.json can be
// consumed directly.
type report struct {
	Results []struct {
		perfbench.Result
	} `json:"results"`
}

// rawReport keeps entries benchcheck does not manage intact when
// -update rewrites the baseline file in place.
type rawReport struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Results    []json.RawMessage `json:"results"`
}

// updateBaseline merges the fresh results into the baseline file,
// replacing entries with matching names and appending new ones. The
// gated pair ratios in the baseline are then, by construction,
// measured exactly the way the gate measures them (same rounds, same
// estimator, same GOMAXPROCS) — a single-shot seqbench run that
// catches a benchmark on a noisy interval cannot skew them.
func updateBaseline(path string, fresh map[string]perfbench.Result, names []string) error {
	var rep rawReport
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	seen := map[string]bool{}
	for i, raw := range rep.Results {
		var probe struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			continue
		}
		if r, ok := fresh[probe.Name]; ok {
			enc, err := json.Marshal(r)
			if err != nil {
				return err
			}
			rep.Results[i] = enc
			seen[probe.Name] = true
		}
	}
	for _, name := range names {
		if r, ok := fresh[name]; ok && !seen[name] {
			enc, err := json.Marshal(r)
			if err != nil {
				return err
			}
			rep.Results = append(rep.Results, enc)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadBaseline(path string) (map[string]perfbench.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]perfbench.Result{}
	var rs []perfbench.Result
	if err := json.Unmarshal(data, &rs); err != nil {
		var rep report
		if err2 := json.Unmarshal(data, &rep); err2 != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for _, e := range rep.Results {
			rs = append(rs, e.Result)
		}
	}
	for _, r := range rs {
		out[r.Name] = r
	}
	return out, nil
}

// ratio returns slow/fast ns-per-op from the result set, or 0 when
// either side is missing or unmeasured.
func ratio(rs map[string]perfbench.Result, slow, fast string) float64 {
	s, f := rs[slow], rs[fast]
	if s.NsPerOp <= 0 || f.NsPerOp <= 0 {
		return 0
	}
	return s.NsPerOp / f.NsPerOp
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_dlm.json", "baseline results file (seqbench -benchjson schema)")
	threshold := flag.Float64("threshold", 0.25, "max tolerated fractional regression of a pair ratio vs baseline")
	minSpeedup := flag.Float64("minspeedup", 5.0, "required floor for the LockGrant Linear/Indexed ratio")
	procs := flag.Int("procs", 0, "GOMAXPROCS for the benchmark run (0 = leave as is)")
	virtualBudget := flag.Duration("virtualbudget", 10*time.Second, "wall-clock budget for the 64-exchange virtual-mode pingpong gate (0 disables)")
	update := flag.Bool("update", false, "re-measure the gated benchmarks and write them into -baseline instead of gating")
	flag.Parse()

	baseline := map[string]perfbench.Result{}
	if !*update {
		var err error
		baseline, err = loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
	}

	names := []string{
		"LockGrantIndexed", "LockGrantLinear",
		"RevokeStorm", "RevokeStormUnbatched",
		"LockClientCachedHitParallel",
		"LockGrantScale1", "LockGrantScale2", "LockGrantScale4", "LockGrantScale8",
		"ServerPingPong", "HandoffPingPong",
		"ReaderFanServer", "ReaderFanDelegated",
	}
	// Each benchmark runs `rounds` times and the minimum ns/op is kept:
	// the min is the run least disturbed by scheduler and VM noise, so
	// the pair ratios gated below are far more stable than single-shot
	// measurements.
	const rounds = 3
	fmt.Printf("benchcheck: running %d DLM benchmarks x%d (keeping per-name min ns/op)...\n", len(names), rounds)
	fresh := map[string]perfbench.Result{}
	failed := false
	for round := 0; round < rounds; round++ {
		for _, r := range perfbench.RunNamed(*procs, names) {
			if r.N == 0 {
				if round == 0 {
					fmt.Fprintf(os.Stderr, "FAIL: benchmark %s not registered in perfbench.All()\n", r.Name)
					failed = true
				}
				continue
			}
			if best, ok := fresh[r.Name]; !ok || r.NsPerOp < best.NsPerOp {
				fresh[r.Name] = r
			}
		}
	}
	for _, name := range names {
		if r, ok := fresh[name]; ok {
			fmt.Printf("  %-24s %12.1f ns/op\n", r.Name, r.NsPerOp)
		}
	}

	if *update {
		if err := updateBaseline(*baselinePath, fresh, names); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: updating %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		fmt.Printf("benchcheck: wrote %d results to %s\n", len(fresh), *baselinePath)
		return
	}

	pairs := []struct {
		label, slow, fast string
		floor             float64 // required minimum for the fresh ratio; 0 = none
	}{
		{label: "grant-path index speedup", slow: "LockGrantLinear", fast: "LockGrantIndexed", floor: *minSpeedup},
		{label: "revoke-storm batching", slow: "RevokeStormUnbatched", fast: "RevokeStorm"},
		// Partition scaling: four capacity-capped lock servers must carry
		// the grant workload at least twice as fast per op as one. The
		// ideal ratio is 4x; the 2x floor leaves room for scheduler noise
		// on small CI runners without letting partitioning silently stop
		// scaling.
		{label: "partition lock scaling", slow: "LockGrantScale1", fast: "LockGrantScale4", floor: 2.0},
	}
	for _, p := range pairs {
		got := ratio(fresh, p.slow, p.fast)
		if got == 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %s: missing fresh results for %s/%s\n", p.label, p.slow, p.fast)
			failed = true
			continue
		}
		fmt.Printf("  %-24s %.2fx (%s / %s)", p.label, got, p.slow, p.fast)
		if p.floor > 0 && got < p.floor {
			fmt.Printf("  << floor %.1fx\n", p.floor)
			fmt.Fprintf(os.Stderr, "FAIL: %s: %.2fx is below the required %.1fx floor\n", p.label, got, p.floor)
			failed = true
			continue
		}
		// A pair whose sides are absent from the baseline file is new
		// since the baseline was recorded — warn and skip rather than
		// failing (or worse, dividing by zero) so adding a benchmark does
		// not require regenerating BENCH_dlm.json on the author's machine
		// in the same commit.
		base := ratio(baseline, p.slow, p.fast)
		if base <= 0 {
			fmt.Println()
			fmt.Fprintf(os.Stderr, "WARN: %s: no baseline for %s/%s in %s; drift not gated (regenerate with seqbench -benchjson)\n",
				p.label, p.slow, p.fast, *baselinePath)
			continue
		}
		allowed := base * (1 - *threshold)
		fmt.Printf("  baseline %.2fx, allowed >= %.2fx", base, allowed)
		if got < allowed {
			fmt.Println("  << REGRESSION")
			fmt.Fprintf(os.Stderr, "FAIL: %s regressed: %.2fx vs baseline %.2fx (>%.0f%% drop)\n",
				p.label, got, base, *threshold*100)
			failed = true
			continue
		}
		fmt.Println()
	}

	// Delegation protocol cost: server RPCs per lock exchange
	// (ping-pong) or per reader-round (reader fan-out), reported by the
	// benchmarks as extra metrics. Like the pair ratios these are
	// protocol counts, not timings, so they are hardware-independent and
	// gated absolutely: the classic revoke path costs 2 RPCs per
	// ping-pong exchange (Lock + Release; >= 1.5 proves the contrast
	// benchmark still exercises it), the handoff path must stay at ~1
	// (the waiter's Lock, with the ack piggybacked; <= 1.2 per the
	// ISSUE 8 target). The reader fan-out rotation pays >= 1 server RPC
	// per reader-round on the server grant path (>= 0.9 keeps the
	// contrast honest); with batched fan-out grants and peer-to-peer
	// lease propagation the cohort shares the writer's single RPC, so
	// the delegated path must stay at or under 0.25 at the benchmark's
	// eight readers (ISSUE 9 target; ideal is 1/8).
	rpcGates := []struct {
		name    string
		metric  string
		floor   float64
		ceiling float64
	}{
		{name: "ServerPingPong", metric: "server_rpcs/exchange", floor: 1.5},
		{name: "HandoffPingPong", metric: "server_rpcs/exchange", ceiling: 1.2},
		{name: "ReaderFanServer", metric: "server_rpcs/reader", floor: 0.9},
		{name: "ReaderFanDelegated", metric: "server_rpcs/reader", ceiling: 0.25},
	}
	for _, g := range rpcGates {
		r, ok := fresh[g.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL: delegation rpc gate: missing fresh result for %s\n", g.name)
			failed = true
			continue
		}
		got, ok := r.Extra[g.metric]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL: %s did not report %s\n", g.name, g.metric)
			failed = true
			continue
		}
		fmt.Printf("  %-24s %.3f %s", g.name, got, g.metric)
		switch {
		case g.floor > 0 && got < g.floor:
			fmt.Printf("  << floor %.2f\n", g.floor)
			fmt.Fprintf(os.Stderr, "FAIL: %s: %.3f %s below the %.2f floor\n", g.name, got, g.metric, g.floor)
			failed = true
		case g.ceiling > 0 && got > g.ceiling:
			fmt.Printf("  >> ceiling %.2f\n", g.ceiling)
			fmt.Fprintf(os.Stderr, "FAIL: %s: %.3f %s exceeds the %.2f ceiling\n", g.name, got, g.metric, g.ceiling)
			failed = true
		default:
			fmt.Println()
		}
	}

	// The client's cached-hit path (shard mutex, list scan, hot-word CAS)
	// and its Unlock allocate nothing; a single alloc per op here means a
	// closure or a list copy leaked onto the path every cached IO takes.
	if r, ok := fresh["LockClientCachedHitParallel"]; !ok {
		fmt.Fprintln(os.Stderr, "FAIL: cached-hit allocs: missing fresh result for LockClientCachedHitParallel")
		failed = true
	} else if r.AllocsPerOp != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: LockClientCachedHitParallel allocates %d/op, want 0\n", r.AllocsPerOp)
		failed = true
	} else {
		fmt.Printf("  %-24s %d allocs/op (required 0)\n", "cached-hit allocs", r.AllocsPerOp)
	}

	// Virtual-time wall budget: the discrete-event mode exists so that
	// simulated seconds cost wall milliseconds. A 64-exchange ping-pong
	// (both variants, full client/flush/revocation stack) measures tens
	// of milliseconds of wall time when the event heap is healthy; if it
	// approaches the budget, either a raw wall-clock sleep slipped back
	// into a simulated path (the run degrades to real time) or the
	// scheduler is spinning instead of advancing the clock. Gated on
	// wall time, not virtual time — virtual durations are exact and
	// covered by the determinism tests.
	if *virtualBudget > 0 {
		cfg := ccpfs.DefaultPingPong()
		cfg.Exchanges = 64
		cfg.Virtual = ccpfs.VirtualOpts{Enabled: true, Seed: 1}
		start := time.Now()
		exp, err := ccpfs.RunPingPong(cfg)
		wall := time.Since(start)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "FAIL: virtual pingpong gate: %v\n", err)
			failed = true
		case wall > *virtualBudget:
			fmt.Fprintf(os.Stderr, "FAIL: virtual pingpong (64 exchanges) took %v wall, budget %v\n", wall, *virtualBudget)
			failed = true
		default:
			fmt.Printf("  %-24s %v wall for %d variants (budget %v)\n",
				"virtual pingpong", wall.Round(time.Millisecond), len(exp.Rows), *virtualBudget)
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("benchcheck: OK")
}
