package pagecache

import (
	"bytes"
	"math/rand"
	"testing"

	"ccpfs/internal/extent"
)

// collectDirtyRef is an early CollectDirty, kept as the reference
// model: visit every page of the stripe, make one block per dirty
// extent, sort the blocks by offset, then append adjacent same-SN
// blocks together. Quadratic and copy-heavy, but obviously a faithful
// statement of what a flush carries; the production walk must return
// exactly these blocks.
func collectDirtyRef(c *Cache, stripe uint64, rng extent.Extent, maxSN extent.SN) []Block {
	sp := c.lookup(stripe)
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	ps := c.cfg.PageSize
	var blocks []Block
	for _, at := range sp.pages {
		pi, pg := at.pi, at.pg
		pageAbs := extent.Extent{Start: pi * ps, End: (pi + 1) * ps}
		iv, ok := pageAbs.Intersect(rng)
		if !ok {
			continue
		}
		in := extent.Extent{Start: iv.Start - pi*ps, End: iv.End - pi*ps}
		for _, e := range pg.dirty.Overlapping(in) {
			if e.SN > maxSN {
				continue
			}
			data := make([]byte, e.Len())
			copy(data, pg.buf[e.Start:e.End])
			blocks = append(blocks, Block{
				Range: extent.Extent{Start: e.Start + pi*ps, End: e.End + pi*ps},
				SN:    e.SN,
				Data:  data,
			})
			pg.dirty.Remove(e.Extent)
		}
		var d delta
		d.refresh(pg)
		c.apply(d)
	}
	sp.mu.Unlock()
	c.signalFlow()
	if len(blocks) < 2 {
		return blocks
	}
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j].Range.Start < blocks[j-1].Range.Start; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
	out := blocks[:1]
	for _, b := range blocks[1:] {
		last := &out[len(out)-1]
		if last.SN == b.SN && last.Range.End == b.Range.Start {
			last.Range.End = b.Range.End
			last.Data = append(last.Data, b.Data...)
			continue
		}
		out = append(out, b)
	}
	return out
}

// dirtySet lists every dirty extent of the stripe, in offset order.
func dirtySet(c *Cache, stripe uint64) []extent.SNExtent {
	sp := c.lookup(stripe)
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := c.cfg.PageSize
	var out []extent.SNExtent
	for _, at := range sp.pages {
		for _, e := range at.pg.dirty.Entries() {
			out = append(out, extent.SNExtent{
				Extent: extent.Extent{Start: e.Start + at.pi*ps, End: e.End + at.pi*ps}, SN: e.SN})
		}
	}
	return out
}

func sameSNExtents(a, b []extent.SNExtent) bool {
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

// TestCollectDirtyMatchesReference replays the same random history —
// overlapping writes with random SNs, a few fills — into two caches and
// collects a random range up to a random SN from both: the blocks
// (ranges, SNs, bytes) must be those of the reference model, the dirty
// sets left behind must agree, and Redirty of the result must restore
// the dirty set and byte count from before the collection.
func TestCollectDirtyMatchesReference(t *testing.T) {
	const (
		ps    = 256
		space = 24 * ps
	)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := New(Config{PageSize: ps}), New(Config{PageSize: ps})
		for step, steps := 0, 1+rng.Intn(40); step < steps; step++ {
			off := rng.Int63n(space - 1)
			n := 1 + rng.Int63n(min64(3*ps, space-off))
			if rng.Intn(4) == 0 {
				// Page-aligned whole pages: runs that span pages.
				off = off / ps * ps
				n = (1 + rng.Int63n(4)) * ps
			}
			sn := extent.SN(rng.Intn(5))
			data := make([]byte, n)
			rng.Read(data)
			if rng.Intn(6) == 0 {
				got.Fill(1, off, data, sn)
				ref.Fill(1, off, data, sn)
			} else {
				got.Write(1, off, data, sn)
				ref.Write(1, off, data, sn)
			}
		}
		var e extent.Extent
		switch rng.Intn(3) {
		case 0:
			e = extent.New(0, extent.Inf)
		case 1:
			e = extent.New(0, space) // page-aligned
		default:
			lo := rng.Int63n(space)
			e = extent.New(lo, lo+1+rng.Int63n(space-lo))
		}
		maxSN := extent.SN(rng.Intn(6))
		before, beforeBytes := dirtySet(got, 1), got.DirtyBytes()

		blocks := got.CollectDirty(1, e, maxSN)
		want := collectDirtyRef(ref, 1, e, maxSN)
		if len(blocks) != len(want) {
			t.Fatalf("seed %d: collect %v up to SN %d: %d blocks, reference %d", seed, e, maxSN, len(blocks), len(want))
		}
		for i := range want {
			if blocks[i].Range != want[i].Range || blocks[i].SN != want[i].SN || !bytes.Equal(blocks[i].Data, want[i].Data) {
				t.Fatalf("seed %d: block %d = %v@%d (%d bytes), reference %v@%d (%d bytes) or bytes differ",
					seed, i, blocks[i].Range, blocks[i].SN, len(blocks[i].Data), want[i].Range, want[i].SN, len(want[i].Data))
			}
		}
		if a, b := dirtySet(got, 1), dirtySet(ref, 1); !sameSNExtents(a, b) {
			t.Fatalf("seed %d: dirty set after collect %v, reference %v", seed, a, b)
		}
		if got.DirtyBytes() != ref.DirtyBytes() {
			t.Fatalf("seed %d: dirty bytes after collect %d, reference %d", seed, got.DirtyBytes(), ref.DirtyBytes())
		}

		got.Redirty(1, blocks)
		if after := dirtySet(got, 1); !sameSNExtents(after, before) {
			t.Fatalf("seed %d: dirty set after Redirty %v, before the collection %v", seed, after, before)
		}
		if got.DirtyBytes() != beforeBytes {
			t.Fatalf("seed %d: dirty bytes after Redirty %d, before the collection %d", seed, got.DirtyBytes(), beforeBytes)
		}
	}
}
