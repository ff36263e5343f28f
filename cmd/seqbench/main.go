// Command seqbench runs the SeqDLM/ccPFS experiment suite and prints
// every table and figure series of the paper's evaluation.
//
// Usage:
//
//	seqbench                 # run every experiment at the default scale
//	seqbench -exp fig20      # run one experiment
//	seqbench -list           # list experiment IDs
//	seqbench -scale 2        # halve simulated device speeds (slower,
//	                         # sharper contention shapes)
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
	run  func(ccpfs.Hardware) (*ccpfs.Experiment, error)
}

// suite lists every experiment; readers and lockServers are the parsed
// -readers and -lock-servers lists (nil keeps each default curve).
func suite(readers, lockServers []int) []experiment {
	return []experiment{
		{"fig4", "IO pattern gap under a traditional DLM (motivation)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig4()
			cfg.Hardware = hw
			return ccpfs.RunFig4(cfg)
		}},
		{"fig5", "bandwidth vs data flushing cost (motivation)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig5()
			cfg.Hardware = hw
			return ccpfs.RunFig5(cfg)
		}},
		{"model", "analytic bottleneck model, Table I / Eq. (1)-(2)", func(ccpfs.Hardware) (*ccpfs.Experiment, error) {
			return ccpfs.RunModel(), nil
		}},
		{"fig17", "sequential conflicting writes: time breakdown", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig17()
			cfg.Hardware = hw
			return ccpfs.RunFig17(cfg)
		}},
		{"fig18", "parallel throughput ± early revocation + lock ratio", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig18()
			cfg.Hardware = hw
			return ccpfs.RunFig18(cfg)
		}},
		{"fig19a", "lock upgrading: interleaved reads/writes", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig19a()
			cfg.Hardware = hw
			return ccpfs.RunFig19a(cfg)
		}},
		{"fig19b", "lock downgrading: two-stripe spanning writes", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig19b()
			cfg.Hardware = hw
			return ccpfs.RunFig19b(cfg)
		}},
		{"table3", "IOR N-1 segmented, low contention", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig20()
			cfg.Hardware = hw
			return ccpfs.RunTable3(cfg)
		}},
		{"fig20", "IOR N-1 strided on one stripe (+ fig20b PIO split)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig20()
			cfg.Hardware = hw
			return ccpfs.RunFig20(cfg)
		}},
		{"fig21", "N-1 strided on 4/8 stripes (+ fig22 times)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig21()
			cfg.Hardware = hw
			return ccpfs.RunFig21(cfg)
		}},
		{"fig23", "Tile-IO: SeqDLM vs DLM-datatype", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig23()
			cfg.Hardware = hw
			return ccpfs.RunFig23(cfg)
		}},
		{"fig24", "VPIC-IO: ccPFS-SeqDLM vs ccPFS-Lustre (+ fig25 times)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig24()
			cfg.Hardware = hw
			return ccpfs.RunFig24(cfg)
		}},
		{"ablation", "SeqDLM mechanisms disabled one at a time", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultAblation()
			cfg.Hardware = hw
			return ccpfs.RunAblation(cfg)
		}},
		{"pingpong", "producer-consumer exchanges: server revoke path vs handoff", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultPingPong()
			cfg.Hardware = hw
			cfg.Virtual = virtualOpts()
			return ccpfs.RunPingPong(cfg)
		}},
		{"readfan", "write-then-fan-out rotation: server grants vs batched fan-out + lease propagation", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultReaderFan()
			cfg.Hardware = hw
			cfg.Virtual = virtualOpts()
			if readers != nil {
				cfg.Readers = readers
			}
			return ccpfs.RunReaderFan(cfg)
		}},
		{"partition", "lock-space partitioning: grant throughput vs lock servers", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultPartitionScale()
			cfg.Hardware = hw
			cfg.Virtual = virtualOpts()
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

var virtualFlag = flag.Bool("virtual", false,
	"run supporting experiments (pingpong, readfan, partition) in deterministic discrete-event mode: simulated delays advance virtual time instead of sleeping, so large client counts finish in seconds and the same -seed reproduces the numbers exactly")

var seedFlag = flag.Int64("seed", 1, "virtual-mode random seed (with -virtual)")

// virtualOpts folds the -virtual/-seed flags into experiment configs.
func virtualOpts() ccpfs.VirtualOpts {
	return ccpfs.VirtualOpts{Enabled: *virtualFlag, Seed: *seedFlag}
}

func main() {
	expFlag := flag.String("exp", "", "run a single experiment (see -list)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	scale := flag.Float64("scale", 1, "slow simulated devices by this factor")
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

	hw := ccpfs.BenchHardware()
	if *scale > 0 && *scale != 1 {
		hw.RTT = time.Duration(float64(hw.RTT) * *scale)
		hw.NetBandwidth /= *scale
		hw.DiskBandwidth /= *scale
		hw.ServerOPS /= *scale
	}

	ran := 0
	for _, e := range exps {
		if *expFlag != "" && !strings.EqualFold(*expFlag, e.id) {
			continue
		}
		ran++
		start := time.Now()
		exp, err := e.run(hw)
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
