package main

import "testing"

// TestParseSize: suffixed and bare byte counts parse to their value;
// zero, negative, malformed and overflowing sizes are refused.
func TestParseSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1", 1, true},
		{"512B", 512, true},
		{"64KB", 64 << 10, true},
		{" 1mb ", 1 << 20, true},
		{"8796093022207MB", 8796093022207 << 20, true},
		{"0", 0, false},
		{"0KB", 0, false},
		{"-1", 0, false},
		{"-1MB", 0, false},
		{"9000000000000MB", 0, false},
		{"8796093022208MB", 0, false},
		{"9223372036854775808", 0, false},
		{"", 0, false},
		{"KB", 0, false},
		{"1GB", 0, false},
	} {
		got, err := parseSize(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d, ok %v", c.in, got, err, c.want, c.ok)
		}
	}
}
