// Command seqbench runs the SeqDLM/ccPFS experiment suite and prints
// every table and figure series of the paper's evaluation.
//
// Usage:
//
//	seqbench                 # run every experiment
//	seqbench -exp fig20      # run one experiment
//	seqbench -list           # list experiment IDs and titles
//
// Every experiment runs at one fixed parameter set, the point
// EXPERIMENTS.md publishes, and every point runs on a seeded virtual
// clock, so every table is the same on any host and in any run; only
// the wall time in each header varies. -seed seeds the pingpong,
// readfan and partition experiments; the paper's experiments run at one
// fixed seed. -readers sets readfan's fan-out widths.
//
// Experiment IDs: fig4, fig5, model, fig17, fig18, fig19a, fig19b,
// table3, fig20, fig21, fig23, fig24, ablation (fig22 and fig25 are the
// time columns of fig21 and fig24), pingpong — the producer-consumer
// exchange pattern with and without client-to-client lock handoff —
// readfan — the write-then-fan-out rotation with and without batched
// shared-mode grants and peer-to-peer read-lease propagation — and
// partition — the lock-space partitioning scaling curve over 1, 2, 4
// and 8 lock servers (not in the paper).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ccpfs"
)

// parseCounts parses a comma-separated list of positive integers (the
// -readers flag); the empty string is nil, which keeps the experiment's
// default curve.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad element %q: want a positive integer", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func main() {
	expFlag := flag.String("exp", "", "run a single experiment (see -list)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	csv := flag.Bool("csv", false, "emit CSV rows instead of tables")
	readersFlag := flag.String("readers", "",
		"comma-separated fan-out widths for the readfan experiment (e.g. 64,256,1024; default 2,4,8)")
	seed := flag.Int64("seed", 1,
		"virtual-clock seed of the pingpong, readfan and partition experiments (the paper's experiments run at a fixed seed)")
	flag.Parse()

	readers, err := parseCounts(*readersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-readers: %v\n", err)
		os.Exit(1)
	}
	figs := ccpfs.Figures(*seed, readers)
	if *list {
		for _, f := range figs {
			fmt.Printf("%-9s %s\n", f.Name, f.Title)
		}
		return
	}

	ran := 0
	for _, f := range figs {
		if *expFlag != "" && !strings.EqualFold(*expFlag, f.Name) {
			continue
		}
		ran++
		start := time.Now()
		exp, err := f.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(exp.CSV())
		} else {
			fmt.Printf("=== %s (%s, %.1fs)\n%s\n", exp.ID, exp.Title, time.Since(start).Seconds(), exp.Text)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *expFlag)
		os.Exit(1)
	}
}
