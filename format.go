package ccpfs

// The formatting and tabulation helpers the experiment runners use to
// print paper-style tables.

import (
	"fmt"
	"strings"
	"time"
)

// bandwidth formats bytes/second on the same 1,024-based scale as size,
// matching how the paper quotes both write sizes and throughput (64KB,
// 2.5 GB/s), so a rate and the size that produced it agree in print.
func bandwidth(bps float64) string {
	switch {
	case bps >= 1<<30:
		return fmt.Sprintf("%.2f GB/s", bps/(1<<30))
	case bps >= 1<<20:
		return fmt.Sprintf("%.2f MB/s", bps/(1<<20))
	case bps >= 1<<10:
		return fmt.Sprintf("%.2f KB/s", bps/(1<<10))
	}
	return fmt.Sprintf("%.2f B/s", bps)
}

// size formats a byte count (1,024-based, as write sizes are quoted in
// the paper: 64KB, 1,024KB, ...).
func size(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// seconds formats a duration in seconds with two decimals.
func seconds(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

// table accumulates rows and renders them with aligned columns, the
// output format of the seqbench tool and the benchmark logs.
type table struct {
	header []string
	rows   [][]string
}

// newTable creates a table with a header row.
func newTable(cols ...string) *table { return &table{header: cols} }

// Row appends a row; values are formatted with %v.
func (t *table) Row(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		row[i] = fmt.Sprintf("%v", v)
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
