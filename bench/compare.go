package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func loadRecord(path string) (*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// simulated reports whether a metric is a pure function of the seed
// (simulated time or an exact count), as the sim_/server_/speedup_
// prefixes say.
func simulated(name string) bool {
	return strings.HasPrefix(name, "sim_") || strings.HasPrefix(name, "server_") || strings.HasPrefix(name, "speedup_")
}

// verdict judges B against base A for one metric: "regressed" when B's
// median is worse than A's by more than the bound, "unresolved" when
// the quartile spread of either side is wider than the bound (so the
// medians cannot be told apart at that resolution), "ok" otherwise.
// Simulated metrics taken on the same seed have no run-to-run spread:
// any difference is the code's.
func verdict(d metricSpec, a, b summary, sameSeed bool) (worse float64, v string) {
	worse = ratio(b.Median-a.Median, a.Median)
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max(a.spread(), b.spread())
	if simulated(d.Name) && sameSeed {
		spread = 0
	}
	switch {
	case a.Median == b.Median:
		return worse, "ok"
	case spread > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// -out files, A being the base, and reports whether any row regressed.
// More failed operations than the base is a regression whatever the
// other numbers say.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	a, err := loadRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A (base) = %s  commit %s seed %d\nB        = %s  commit %s seed %d\n",
		pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-14s %-20s %14s %25s %14s %25s %8s %7s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "worse", "verdict")
	rows := 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Trace || rb.Trace {
				continue
			}
			for _, d := range spec.EndToEnd {
				sa, sb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				worse, v := verdict(d, sa, sb, a.Seed == b.Seed)
				regressed = regressed || v == "regressed"
				rows++
				fmt.Fprintf(w, "%-14s %-20s %14.6g %25s %14.6g %25s %8.4f %+6.1f%%  %s (bound %.0f%%)\n",
					ra.Workload, d.Name, sa.Median, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3),
					sb.Median, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3),
					ratio(sb.Median, sa.Median), 100*worse, v, 100*d.Bound)
			}
			v := "ok"
			if ratio(float64(rb.Failed), float64(rb.Attempted)) > ratio(float64(ra.Failed), float64(ra.Attempted)) {
				v, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-14s %-20s %14d %25s %14d %25s %8s %7s  %s (any increase)\n",
				ra.Workload, "failed_ops", ra.Failed, fmt.Sprintf("of %d", ra.Attempted), rb.Failed, fmt.Sprintf("of %d", rb.Attempted), "", "", v)
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("%s and %s share no untraced workload", pathA, pathB)
	}
	return regressed, nil
}
