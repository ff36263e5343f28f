package extent

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMaxSNOverlappingMatchesScan drives a tree through random inserts,
// removals and clears and checks MaxSNOverlapping's pruned walk against
// a brute-force scan of every entry, for a spread of probe ranges
// including empty, point, spanning and miss probes.
func TestMaxSNOverlappingMatchesScan(t *testing.T) {
	var tr Tree
	rng := rand.New(rand.NewSource(42))

	scan := func(e Extent) (SN, bool) {
		var m SN
		found := false
		tr.Visit(func(ent SNExtent) bool {
			if ent.Overlaps(e) {
				found = true
				m = max(m, ent.SN)
			}
			return true
		})
		return m, found
	}

	for round := 0; round < 300; round++ {
		for m := 0; m < 1+rng.Intn(3); m++ {
			start := rng.Int63n(4096)
			e := Extent{start, start + 1 + rng.Int63n(256)}
			switch rng.Intn(10) {
			case 8:
				if ents := tr.Overlapping(e); len(ents) > 0 {
					tr.RemoveLE(ents[:1], ents[0].SN)
				}
			case 9:
				if round%97 == 0 {
					tr.Clear()
				}
			default:
				tr.Insert(e, SN(1+rng.Intn(64)))
			}
		}
		if err := tr.check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := 0; i < 40; i++ {
			start := rng.Int63n(4096) - 64
			e := Extent{start, start + rng.Int63n(512)}
			gotSN, gotOK := tr.MaxSNOverlapping(e)
			wantSN, wantOK := scan(e)
			if gotSN != wantSN || gotOK != wantOK {
				t.Fatalf("round %d probe %v: MaxSNOverlapping = (%d,%v), scan = (%d,%v)",
					round, e, gotSN, gotOK, wantSN, wantOK)
			}
		}
	}
}

// check verifies Tree's invariants: entries are non-empty, ascending and
// non-overlapping, and Len counts them.
func (t *Tree) check() error {
	var prev SNExtent
	count := 0
	var err error
	t.Visit(func(ent SNExtent) bool {
		switch {
		case ent.Empty():
			err = fmt.Errorf("extent: empty entry %v in tree", ent)
		case count > 0 && prev.End > ent.Start:
			err = fmt.Errorf("extent: entries %v and %v overlap", prev, ent)
		}
		prev = ent
		count++
		return err == nil
	})
	if err == nil && count != t.Len() {
		err = fmt.Errorf("extent: tree visits %d entries, Len is %d", count, t.Len())
	}
	return err
}
