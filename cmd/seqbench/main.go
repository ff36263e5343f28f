// Command seqbench runs the SeqDLM/ccPFS experiment suite and prints
// every table and figure series of the paper's evaluation.
//
// Usage:
//
//	seqbench                 # run every experiment at the default scale
//	seqbench -exp fig20      # run one experiment
//	seqbench -list           # list experiment IDs
//
// Every point runs on a seeded virtual clock, so every table is the same
// on any host and in any run; only the wall time in each header varies.
// -seed seeds the pingpong, readfan and partition experiments; the
// paper's experiments run at one fixed seed.
//
// Experiment IDs: fig4, fig5, model, fig17, fig18, fig19a, fig19b,
// table3, fig20, fig21, fig23, fig24, ablation (fig22 and fig25 are the
// time columns of fig21 and fig24), pingpong — the producer-consumer
// exchange pattern with and without client-to-client lock handoff —
// readfan — the write-then-fan-out rotation with and without batched
// shared-mode grants and peer-to-peer read-lease propagation — and
// partition — the lock-space partitioning scaling curve (not in the
// paper; -lock-servers picks the server counts).
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

type experiment struct {
	id   string
	desc string
	run  func() (*ccpfs.Experiment, error)
}

// suite lists every experiment; readers and lockServers are the parsed
// -readers and -lock-servers lists (nil keeps each default curve).
func suite(readers, lockServers []int) []experiment {
	return []experiment{
		{"fig4", "IO pattern gap under a traditional DLM (motivation)", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig4(ccpfs.DefaultFig4()) }},
		{"fig5", "bandwidth vs data flushing cost (motivation)", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig5(ccpfs.DefaultFig5()) }},
		{"model", "analytic bottleneck model, Table I / Eq. (1)-(2)", func() (*ccpfs.Experiment, error) { return ccpfs.RunModel(), nil }},
		{"fig17", "sequential conflicting writes: time breakdown", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig17(ccpfs.DefaultFig17()) }},
		{"fig18", "parallel throughput ± early revocation + lock ratio", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig18(ccpfs.DefaultFig18()) }},
		{"fig19a", "lock upgrading: interleaved reads/writes", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig19a(ccpfs.DefaultFig19a()) }},
		{"fig19b", "lock downgrading: two-stripe spanning writes", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig19b(ccpfs.DefaultFig19b()) }},
		{"table3", "IOR N-1 segmented, low contention", func() (*ccpfs.Experiment, error) { return ccpfs.RunTable3(ccpfs.DefaultFig20()) }},
		{"fig20", "IOR N-1 strided on one stripe (+ fig20b PIO split)", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig20(ccpfs.DefaultFig20()) }},
		{"fig21", "N-1 strided on 4/8 stripes (+ fig22 times)", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig21(ccpfs.DefaultFig21()) }},
		{"fig23", "Tile-IO: SeqDLM vs DLM-datatype", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig23(ccpfs.DefaultFig23()) }},
		{"fig24", "VPIC-IO: ccPFS-SeqDLM vs ccPFS-Lustre (+ fig25 times)", func() (*ccpfs.Experiment, error) { return ccpfs.RunFig24(ccpfs.DefaultFig24()) }},
		{"ablation", "SeqDLM mechanisms disabled one at a time", func() (*ccpfs.Experiment, error) { return ccpfs.RunAblation(ccpfs.DefaultAblation()) }},
		{"pingpong", "producer-consumer exchanges: server revoke path vs handoff", func() (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultPingPong()
			cfg.Seed = *seedFlag
			return ccpfs.RunPingPong(cfg)
		}},
		{"readfan", "write-then-fan-out rotation: server grants vs batched fan-out + lease propagation", func() (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultReaderFan()
			cfg.Seed = *seedFlag
			if readers != nil {
				cfg.Readers = readers
			}
			return ccpfs.RunReaderFan(cfg)
		}},
		{"partition", "lock-space partitioning: grant throughput vs lock servers", func() (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultPartitionScale()
			cfg.Seed = *seedFlag
			if lockServers != nil {
				cfg.Servers = lockServers
			}
			return ccpfs.RunPartitionScale(cfg)
		}},
	}
}

// parseCounts parses a comma-separated list of positive integers (the
// -readers and -lock-servers flags); the empty string is nil, which keeps
// the experiment's default curve.
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

var lockServersFlag = flag.String("lock-servers", "",
	"comma-separated lock-server counts for the partition experiment (e.g. 1,2,4,8; default 1,2,4)")

var readersFlag = flag.String("readers", "",
	"comma-separated fan-out widths for the readfan experiment (e.g. 64,256,1024; default 2,4,8)")

var seedFlag = flag.Int64("seed", 1,
	"virtual-clock seed of the pingpong, readfan and partition experiments (the paper's experiments run at a fixed seed)")

func main() {
	expFlag := flag.String("exp", "", "run a single experiment (see -list)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	csv := flag.Bool("csv", false, "emit CSV rows instead of tables")
	flag.Parse()

	readers, err := parseCounts(*readersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-readers: %v\n", err)
		os.Exit(1)
	}
	lockServers, err := parseCounts(*lockServersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-lock-servers: %v\n", err)
		os.Exit(1)
	}
	exps := suite(readers, lockServers)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.desc)
		}
		return
	}

	ran := 0
	for _, e := range exps {
		if *expFlag != "" && !strings.EqualFold(*expFlag, e.id) {
			continue
		}
		ran++
		start := time.Now()
		exp, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
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
