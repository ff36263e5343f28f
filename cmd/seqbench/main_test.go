package main

import (
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ccpfs"
)

// TestParseCounts: a comma-separated list of positive integers parses in
// order, the empty flag keeps the default (nil), and an element that is
// not a whole positive integer refuses the whole list.
func TestParseCounts(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"4", []int{4}, true},
		{"1,2,4,8", []int{1, 2, 4, 8}, true},
		{" 64 , 256,1024 ", []int{64, 256, 1024}, true},
		{"1x,2", nil, false},
		{"1,2x", nil, false},
		{"0", nil, false},
		{"1,0", nil, false},
		{"-3", nil, false},
		{"1,,2", nil, false},
		{"1,", nil, false},
		{",", nil, false},
		{"2.5", nil, false},
		{"99999999999999999999", nil, false},
	} {
		got, err := parseCounts(c.in)
		if (err == nil) != c.ok || !slices.Equal(got, c.want) {
			t.Errorf("parseCounts(%q) = %v, %v; want %v, ok %v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestSuiteIDsDocumented: every experiment ID is unique and appears in
// the package comment's "Experiment IDs" list, which is what -exp
// accepts.
func TestSuiteIDsDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	start := strings.Index(doc, "Experiment IDs:")
	if start < 0 {
		t.Fatalf("package comment has no \"Experiment IDs:\" list:\n%s", doc)
	}
	ids := doc[start:]
	if end := strings.Index(ids, "\n\n"); end >= 0 {
		ids = ids[:end]
	}
	seen := map[string]bool{}
	for _, f := range ccpfs.Figures(1, nil) {
		if seen[f.Name] {
			t.Errorf("experiment ID %q appears twice in ccpfs.Figures", f.Name)
		}
		seen[f.Name] = true
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(f.Name) + `\b`).MatchString(ids) {
			t.Errorf("experiment ID %q is missing from the package comment's list:\n%s", f.Name, ids)
		}
	}
}
