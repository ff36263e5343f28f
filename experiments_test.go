package ccpfs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// These tests assert the *shape* of every reproduced figure: who wins
// and in roughly which direction. Each reads the figure exactly as
// seqbench prints it — the point EXPERIMENTS.md publishes and
// .github/golden/ledger.txt pins — computed once per package run
// (figure) and shared by every test that reads it. Every point runs on
// a seeded virtual clock, so a test reads the same numbers on every run
// and every host: a failure is a change in what the model computes,
// never scheduling noise.

// figures caches each figure computed in this package run, by name and
// seed.
var figures = map[string]*Experiment{}

// figure returns the figure seqbench prints for -exp name -seed seed.
func figure(t *testing.T, name string, seed int64) *Experiment {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, seed)
	if exp, ok := figures[key]; ok {
		return exp
	}
	exp, err := runFigure(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	figures[key] = exp
	return exp
}

// runFigure computes the figure afresh.
func runFigure(name string, seed int64) (*Experiment, error) {
	for _, f := range Figures(seed, nil) {
		if f.Name == name {
			return f.Run()
		}
	}
	return nil, fmt.Errorf("no figure %q", name)
}

func TestShapeFig4PatternGap(t *testing.T) {
	exp := figure(t, "fig4", 1)
	get := func(p string) float64 {
		r, ok := exp.Find(func(r Row) bool { return r.Pattern == p && r.WriteSize == 64<<10 })
		if !ok {
			t.Fatalf("missing pattern %s", p)
		}
		return r.Bandwidth
	}
	nn, seg, str := get("N-N"), get("N-1 segmented"), get("N-1 strided")
	if seg < 2*str {
		t.Errorf("segmented (%.1f MB/s) should be well above strided (%.1f MB/s)", seg/1e6, str/1e6)
	}
	if nn < 2*str {
		t.Errorf("N-N (%.1f MB/s) should be well above strided (%.1f MB/s)", nn/1e6, str/1e6)
	}
}

func TestShapeFig5FlushReduction(t *testing.T) {
	exp := figure(t, "fig5", 1)
	full := exp.Bandwidth("full flush", 0, 0)
	none := exp.Bandwidth("no flush (fakeWrite)", 0, 0)
	if none < 1.5*full {
		t.Errorf("removing flush gained only %.1fx; it should dominate", none/full)
	}
}

func TestShapeFig17Breakdown(t *testing.T) {
	exp := figure(t, "fig17", 1)
	for _, ws := range []int64{16 << 10, 64 << 10, 256 << 10} {
		pw, _ := exp.Find(func(r Row) bool { return r.Variant == "PW" && r.WriteSize == ws })
		nbw, _ := exp.Find(func(r Row) bool { return r.Variant == "NBW" && r.WriteSize == ws })
		if pw.PIO <= nbw.PIO {
			t.Errorf("%s: PW total (%v) should exceed NBW total (%v)", size(ws), pw.PIO, nbw.PIO)
		}
		// For PW the conflict resolution dominates (paper: 67.9–69.3%)
		// and its cancel part dominates the resolution (paper:
		// 66.5–95.7%).
		res := pw.Revocation + pw.Cancel
		if float64(res) < 0.4*float64(pw.PIO) {
			t.Errorf("%s: PW resolution share = %.0f%%, want the dominant part",
				size(ws), 100*float64(res)/float64(pw.PIO))
		}
		if pw.Cancel < pw.Revocation {
			t.Errorf("%s: PW cancel (%v) should dominate revocation (%v)", size(ws), pw.Cancel, pw.Revocation)
		}
	}
}

func TestShapeFig18Throughput(t *testing.T) {
	exp := figure(t, "fig18", 1)
	get := func(v string) Row {
		r, ok := exp.Find(func(r Row) bool { return r.Variant == v && r.WriteSize == 256<<10 })
		if !ok {
			t.Fatalf("missing variant %s", v)
		}
		return r
	}
	pw, nbwER := get("PW"), get("NBW")
	if nbwER.Throughput < 2*pw.Throughput {
		t.Errorf("NBW+ER (%.0f op/s) should be well above PW (%.0f op/s)",
			nbwER.Throughput, pw.Throughput)
	}
	// Fig. 18b: early grant cuts the locking share of IO time.
	if nbwER.LockRatio >= pw.LockRatio {
		t.Errorf("NBW lock ratio (%.2f) should be below PW's (%.2f)",
			nbwER.LockRatio, pw.LockRatio)
	}
}

func TestShapeFig19aUpgrading(t *testing.T) {
	exp := figure(t, "fig19a", 1)
	get := func(v string) float64 {
		r, _ := exp.Find(func(r Row) bool { return r.Variant == v })
		return r.Throughput
	}
	if get("NBW+U") < 2*get("NBW") {
		t.Errorf("upgrading should rescue NBW: NBW+U=%.0f NBW=%.0f", get("NBW+U"), get("NBW"))
	}
	if get("NBW+U") < 0.3*get("PW") {
		t.Errorf("NBW+U (%.0f) should approach PW (%.0f)", get("NBW+U"), get("PW"))
	}
}

func TestShapeFig19bDowngrading(t *testing.T) {
	exp := figure(t, "fig19b", 1)
	pw := exp.Bandwidth("PW", 256<<10, 0)
	bwd := exp.Bandwidth("BW+D", 256<<10, 0)
	if bwd < 1.3*pw {
		t.Errorf("BW+D (%.1f MB/s) should beat PW (%.1f MB/s)", bwd/1e6, pw/1e6)
	}
}

func TestShapeTable3LowContention(t *testing.T) {
	exp := figure(t, "table3", 1)
	seq := exp.Bandwidth("SeqDLM", 0, 0)
	// Low contention: everyone within a small factor (paper: within 2%).
	for _, name := range []string{"DLM-basic", "DLM-Lustre"} {
		if ratio := seq / exp.Bandwidth(name, 0, 0); ratio < 0.4 || ratio > 2.5 {
			t.Errorf("segmented low-contention gap SeqDLM/%s = %.2fx, want near 1", name, ratio)
		}
	}
}

func TestShapeFig20Strided(t *testing.T) {
	exp := figure(t, "fig20", 1)
	seq := exp.Bandwidth("SeqDLM", 64<<10, 0)
	basic := exp.Bandwidth("DLM-basic", 64<<10, 0)
	if seq < 2*basic {
		t.Errorf("SeqDLM strided (%.1f MB/s) should be well above DLM-basic (%.1f MB/s)",
			seq/1e6, basic/1e6)
	}
	// Fig. 20b: SeqDLM's PIO share of total time is small, the
	// baselines' is large.
	seqRow, _ := exp.Find(func(r Row) bool { return r.Variant == "SeqDLM" && r.WriteSize == 64<<10 })
	basicRow, _ := exp.Find(func(r Row) bool { return r.Variant == "DLM-basic" && r.WriteSize == 64<<10 })
	seqShare := float64(seqRow.PIO) / float64(seqRow.PIO+seqRow.Flush)
	basicShare := float64(basicRow.PIO) / float64(basicRow.PIO+basicRow.Flush)
	if seqShare >= basicShare {
		t.Errorf("SeqDLM PIO share (%.0f%%) should be below DLM-basic's (%.0f%%)",
			seqShare*100, basicShare*100)
	}
}

func TestShapeFig21MultiStripe(t *testing.T) {
	exp := figure(t, "fig21", 1)
	seq := exp.Bandwidth("SeqDLM", 188032, 4)
	lus := exp.Bandwidth("DLM-Lustre", 188032, 4)
	if seq < 1.5*lus {
		t.Errorf("SeqDLM (%.1f MB/s) should beat DLM-Lustre (%.1f MB/s) on 4 stripes",
			seq/1e6, lus/1e6)
	}
}

func TestShapeFig23TileIO(t *testing.T) {
	exp := figure(t, "fig23", 1)
	seq := exp.Bandwidth("SeqDLM", 0, 1)
	dt := exp.Bandwidth("DLM-datatype", 0, 1)
	if seq < 1.5*dt {
		t.Errorf("SeqDLM (%.1f MB/s) should beat DLM-datatype (%.1f MB/s) at 1 stripe",
			seq/1e6, dt/1e6)
	}
}

func TestShapeFig24VPIC(t *testing.T) {
	exp := figure(t, "fig24", 1)
	s := exp.Bandwidth("ccPFS-S", 64<<10, 1)
	l := exp.Bandwidth("ccPFS-L", 64<<10, 1)
	if s < 1.5*l {
		t.Errorf("ccPFS-S (%.1f MB/s) should beat ccPFS-L (%.1f MB/s) at 1 stripe",
			s/1e6, l/1e6)
	}
}

func TestPublicAPISmoke(t *testing.T) {
	c, err := NewCluster(Options{Servers: 2, Policy: SeqDLM(), Hardware: FastHardware()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("smoke")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Create("/smoke", 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello ccpfs"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	if _, err := f.ReadAt(buf, 0); err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if string(buf) != "hello ccpfs" {
		t.Fatalf("read %q", buf)
	}
	res, err := RunIOR(c, IORConfig{
		Pattern: PatternN1Strided, Clients: 2, WriteSize: 4096,
		WritesPerClient: 4, StripeSize: 1 << 20, StripeCount: 1, Path: "/smoke-ior",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 8 {
		t.Fatalf("res = %+v", res)
	}
}

func TestShapeAblation(t *testing.T) {
	exp := figure(t, "ablation", 1)
	full := exp.Bandwidth("SeqDLM (full)", 0, 0)
	noEG := exp.Bandwidth("- early grant", 0, 0)
	if full < 1.5*noEG {
		t.Errorf("early grant should carry most of the win: full=%.1f no-EG=%.1f MB/s",
			full/1e6, noEG/1e6)
	}
	// Disabling conversion must not matter on a single-stripe write-only
	// workload (no mixed reads, no spanning writes).
	noConv := exp.Bandwidth("- conversion", 0, 0)
	if noConv < 0.3*full {
		t.Errorf("conversion should be irrelevant here: full=%.1f no-conv=%.1f MB/s",
			full/1e6, noConv/1e6)
	}
}

func TestExperimentCSV(t *testing.T) {
	exp := &Experiment{ID: "X", Rows: []Row{
		{Variant: "a", WriteSize: 65536, Stripes: 4, Bandwidth: 1e6,
			PIO: 2 * time.Second, Flush: time.Second, Throughput: 10, LockRatio: 0.5},
	}}
	csv := exp.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv = %q", csv)
	}
	if !strings.HasPrefix(lines[0], "experiment,variant") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `X,"a",`) || !strings.Contains(lines[1], "65536,4,1000000") {
		t.Fatalf("row = %q", lines[1])
	}
}

// TestModelTableI: the §II-C model at Table I parameters, one row per
// write size D. D is labelled on the binary scale the figures use, data
// flushing is the bottleneck at every D, and B_total rises with D.
func TestModelTableI(t *testing.T) {
	exp := figure(t, "model", 1)
	if len(exp.Rows) != 3 {
		t.Fatalf("model has %d rows, want 3:\n%s", len(exp.Rows), exp.Text)
	}
	lines := strings.Split(strings.TrimRight(exp.Text, "\n"), "\n")
	dataLines := lines[len(lines)-len(exp.Rows):]
	for i, want := range []string{"64KB", "256KB", "1024KB"} {
		if got := strings.Fields(dataLines[i])[0]; got != want {
			t.Errorf("row %d: D reads %q, want %q:\n%s", i, got, want, exp.Text)
		}
		row := exp.Rows[i]
		if row.Variant != "data flushing" {
			t.Errorf("D=%s: bottleneck %q, want data flushing", want, row.Variant)
		}
		if i > 0 && row.Bandwidth <= exp.Rows[i-1].Bandwidth {
			t.Errorf("B_total falls from %.3g to %.3g B/s as D grows to %s",
				exp.Rows[i-1].Bandwidth, row.Bandwidth, want)
		}
	}
}
