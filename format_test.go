package ccpfs

import (
	"strings"
	"testing"
	"time"
)

func TestBandwidth(t *testing.T) {
	cases := map[float64]string{
		2.5 * (1 << 30): "2.50 GB/s",
		33 * (1 << 20):  "33.00 MB/s",
		1.5 * (1 << 10): "1.50 KB/s",
		12:              "12.00 B/s",
		// The scale is binary, like size: 1e9 B/s is still MB/s territory.
		1e9: "953.67 MB/s",
	}
	for in, want := range cases {
		if got := bandwidth(in); got != want {
			t.Errorf("bandwidth(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSize(t *testing.T) {
	cases := map[int64]string{
		64 << 10: "64KB",
		1 << 20:  "1024KB",
		1 << 30:  "1GB",
		47008:    "47008B",
	}
	for in, want := range cases {
		if got := size(in); got != want {
			t.Errorf("size(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSeconds(t *testing.T) {
	if got := seconds(1500 * time.Millisecond); got != "1.50s" {
		t.Fatalf("seconds = %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := newTable("DLM", "Bandwidth", "Time")
	tb.Row("SeqDLM", "33.2 GB/s", 18.1)
	tb.Row("DLM-basic", "33.8 GB/s", 19.1)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns align: "Bandwidth" starts at the same offset everywhere.
	idx := strings.Index(lines[0], "Bandwidth")
	if !strings.HasPrefix(lines[2][idx:], "33.2") || !strings.HasPrefix(lines[3][idx:], "33.8") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableEmpty(t *testing.T) {
	tb := newTable("A")
	if out := tb.String(); !strings.Contains(out, "A") {
		t.Fatalf("header missing: %q", out)
	}
}
