package extent_test

import (
	"math/rand"
	"testing"

	"ccpfs/internal/extent"
	"ccpfs/internal/wire"
)

// TestAllocBudgetListInsert: the inserts a page cache makes write after
// write — first write to a page, rewrite of the whole page, append just
// past the cached bytes — edit the list in place and build the update
// set in the caller's scratch.
func TestAllocBudgetListInsert(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var l extent.List
	var store [2]extent.SNExtent
	l.SetStorage(store[:])
	var won [4]extent.SNExtent
	sn := extent.SN(1)
	if a := testing.AllocsPerRun(100, func() {
		sn++
		l.Reset()
		l.InsertInto(won[:], extent.New(0, 1024), sn, false)    // empty list
		l.InsertInto(won[:], extent.New(1024, 4096), sn, false) // append at the end, merges
		l.InsertInto(won[:], extent.New(0, 4096), sn+1, false)  // covers the whole list
		l.InsertInto(won[:], extent.New(0, 4096), sn+1, true)   // a fill that loses the tie
		if l.Len() != 1 {
			t.Fatalf("list = %v", l.Entries())
		}
		l.RemoveLE(extent.New(0, 4096), sn+1)
	}); a != 0 {
		t.Errorf("in-place list edits: %.1f allocs per run, want 0", a)
	}
}

// byteModel is the obvious model of a List: one SN per byte.
type byteModel map[int64]extent.SN

func (m byteModel) entries(space int64) []extent.SNExtent {
	var out []extent.SNExtent
	for p := int64(0); p < space; p++ {
		sn, ok := m[p]
		if !ok {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End == p && out[n-1].SN == sn {
			out[n-1].End = p + 1
			continue
		}
		out = append(out, extent.SNExtent{Extent: extent.New(p, p+1), SN: sn})
	}
	return out
}

// TestListMatchesByteModel drives Insert, fills (InsertInto with ties
// going to the old entry) and RemoveLE — the in-place fast paths, the
// general rebuild and the split — against the byte model, comparing the
// entries and every update set.
func TestListMatchesByteModel(t *testing.T) {
	const space = 64
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l extent.List
		var store [2]extent.SNExtent
		if seed%2 == 0 {
			l.SetStorage(store[:])
		}
		m := byteModel{}
		for step := 0; step < 40; step++ {
			lo := rng.Int63n(space)
			e := extent.New(lo, lo+1+rng.Int63n(space-lo))
			if rng.Intn(4) == 0 {
				e = extent.New(0, space)
			}
			sn := extent.SN(rng.Intn(4))
			var won, wantWon []extent.SNExtent
			switch op := rng.Intn(3); op {
			case 0, 1:
				ties := op == 1
				if ties {
					won = l.InsertInto(nil, e, sn, true)
				} else {
					won = l.Insert(e, sn)
				}
				w := byteModel{}
				for p := e.Start; p < e.End; p++ {
					if old, ok := m[p]; !ok || sn > old || (sn == old && !ties) {
						m[p], w[p] = sn, sn
					}
				}
				wantWon = w.entries(space)
			case 2:
				l.RemoveLE(e, sn)
				for p := e.Start; p < e.End; p++ {
					if old, ok := m[p]; ok && old <= sn {
						delete(m, p)
					}
				}
			}
			if !sameEntries(won, wantWon) {
				t.Fatalf("seed %d step %d: update set %v, model %v", seed, step, won, wantWon)
			}
			if got, want := l.Entries(), m.entries(space); !sameEntries(got, want) {
				t.Fatalf("seed %d step %d: entries %v, model %v", seed, step, got, want)
			}
		}
	}
}

func sameEntries(a, b []extent.SNExtent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
