package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func smokeOpts(t *testing.T) options {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return options{seed: 1, seconds: 0, smoke: true, spec: spec}
}

// TestSmoke runs all four workloads and the traced run at smoke scale
// and checks the printed contract: every metric of BENCHMARK.json once
// per workload with its unit, phase shares summing to one, no failed
// op, and simulated metrics that repeat bit for bit on the same seed.
func TestSmoke(t *testing.T) {
	opts := smokeOpts(t)
	for _, traced := range []bool{false, true} {
		defs := opts.spec.EndToEnd
		if traced {
			defs = opts.spec.PerLayer
		}
		var out bytes.Buffer
		rec, err := runAll(&out, opts, "", traced)
		if err != nil {
			t.Fatal(err)
		}
		again, err := runAll(&bytes.Buffer{}, opts, "", traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Runs) != len(opts.spec.Workloads) {
			t.Fatalf("ran %d workloads, BENCHMARK.json lists %d", len(rec.Runs), len(opts.spec.Workloads))
		}
		sections := strings.Split(out.String(), "\n== ")[1:]
		for i, run := range rec.Runs {
			if run.Workload != opts.spec.Workloads[i].Name {
				t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, run.Workload, opts.spec.Workloads[i].Name)
			}
			if run.Failed != 0 || !run.Correct || run.Attempted == 0 {
				t.Errorf("%s: %d of %d ops failed", run.Workload, run.Failed, run.Attempted)
			}
			for _, d := range defs {
				n := 0
				for _, line := range strings.Split(sections[i], "\n") {
					f := strings.Fields(line)
					if len(f) >= 3 && f[0] == d.Name && f[2] == d.Unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s: metric %s [%s] printed %d times, want once", run.Workload, d.Name, d.Unit, n)
				}
				v := run.Metrics[d.Name].Median
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", run.Workload, d.Name, v)
				}
				exact := simulated(d.Name) || strings.HasSuffix(d.Name, "_per_op") && !strings.HasPrefix(d.Name, "host_")
				if w := again.Runs[i].Metrics[d.Name].Median; exact && v != w {
					t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", run.Workload, d.Name, v, w)
				}
			}
			if !traced {
				continue
			}
			var shares float64
			for _, name := range phaseNames {
				shares += run.Metrics["phase."+name+"_frac"].Median
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: phase shares sum to %v", run.Workload, shares)
			}
		}
	}
}

// TestContrasts checks, at smoke scale, the differences between the
// workloads that make each one worth running.
func TestContrasts(t *testing.T) {
	opts := smokeOpts(t)
	rec, err := runAll(&bytes.Buffer{}, opts, "", true)
	if err != nil {
		t.Fatal(err)
	}
	get := func(workload, metric string) float64 {
		for _, run := range rec.Runs {
			if run.Workload == workload {
				return run.Metrics[metric].Median
			}
		}
		t.Fatalf("no run of %s", workload)
		return 0
	}
	if s, g := get("ior_strided", "server_rpcs_per_op"), get("ior_segmented", "server_rpcs_per_op"); s <= 2*g {
		t.Errorf("strided %.3f lock RPCs/op should be well above segmented %.3f", s, g)
	}
	for _, w := range []string{"ior_strided", "ior_segmented"} {
		if v := get(w, "dlm.handoff_ratio"); v != 0 {
			t.Errorf("%s: handoff ratio %v, want 0", w, v)
		}
	}
	if v := get("pingpong", "dlm.handoff_ratio"); v <= 0 {
		t.Errorf("pingpong: handoff ratio %v, want > 0", v)
	}
	for _, run := range rec.Runs {
		leases, gathers := run.Metrics["dlm.lease_grants_per_op"].Median, run.Metrics["dlm.gathers"].Median
		if fan := run.Workload == "readfan"; (leases > 0) != fan || (gathers > 0) != fan {
			t.Errorf("%s: lease grants/op %v, gathers %v", run.Workload, leases, gathers)
		}
	}
}

// TestOracleFires corrupts one read-back block and expects the rep to
// report it.
func TestOracleFires(t *testing.T) {
	oracleFault = func(block []byte) { block[len(block)/2] ^= 0xff }
	defer func() { oracleFault = nil }()
	for _, sp := range specs(true) {
		res, err := runRep(sp, false, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 1 {
			t.Errorf("%s: %d failures reported for one corrupted block", sp.name, res.failed)
		}
	}
	opts := smokeOpts(t)
	rec, err := runAll(&bytes.Buffer{}, opts, "pingpong", true)
	if err != nil {
		t.Fatal(err)
	}
	if run := rec.Runs[0]; run.Correct || run.Metrics["failed_op_frac"].Median <= 0 {
		t.Errorf("corrupted run reported correct=%v failed_op_frac=%v", run.Correct, run.Metrics["failed_op_frac"].Median)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "host_us_per_op", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sim_pio_bw_MiBps", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary { return summary{Median: v, Q1: v * 0.99, Q3: v * 1.01, N: 16} }
	wide := func(v float64) summary { return summary{Median: v, Q1: v * 0.9, Q3: v * 1.1, N: 16} }
	for _, tc := range []struct {
		d        metricSpec
		a, b     summary
		sameSeed bool
		want     string
	}{
		{lower, tight(100), tight(105), false, "ok"},
		{lower, tight(100), tight(115), false, "regressed"},
		{lower, tight(100), tight(80), false, "ok"},
		{lower, wide(100), tight(115), false, "unresolved"},
		{higher, tight(100), tight(85), false, "regressed"},
		{higher, tight(100), tight(120), false, "ok"},
		{higher, wide(100), wide(85), false, "unresolved"},
		{higher, wide(100), wide(85), true, "regressed"}, // same seed: simulated values are exact
		{higher, wide(100), wide(100), false, "ok"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b, tc.sameSeed); got != tc.want {
			t.Errorf("%s A=%v B=%v: verdict %s, want %s", tc.d.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}
