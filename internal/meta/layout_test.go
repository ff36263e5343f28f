package meta

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestResourceIDRoundTrip(t *testing.T) {
	fid, stripe := SplitResource(ResourceID(42, 7))
	if fid != 42 || stripe != 7 {
		t.Fatalf("round trip = %d, %d", fid, stripe)
	}
}

func TestQuickResourceIDRoundTrip(t *testing.T) {
	f := func(fid uint32, stripe uint16) bool {
		g, s := SplitResource(ResourceID(uint64(fid), uint32(stripe)))
		return g == uint64(fid) && s == uint32(stripe)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceStripeBounds(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for rid := uint64(0); rid < 1000; rid++ {
			p := PlaceStripe(rid, n)
			if p < 0 || p >= n {
				t.Fatalf("PlaceStripe(%d, %d) = %d out of range", rid, n, p)
			}
		}
	}
	if PlaceStripe(123, 0) != 0 {
		t.Fatal("degenerate server count must map to 0")
	}
}

func TestPlaceStripeSpreads(t *testing.T) {
	// Consecutive stripes of one file should not all land on one server.
	counts := map[int]int{}
	for stripe := uint32(0); stripe < 16; stripe++ {
		counts[PlaceStripe(ResourceID(1, stripe), 4)]++
	}
	if len(counts) < 3 {
		t.Fatalf("16 stripes landed on only %d of 4 servers: %v", len(counts), counts)
	}
}

func TestSplitRangeSingleStripe(t *testing.T) {
	segs := SplitRange(100, 50, 1<<20, 1)
	if len(segs) != 1 || segs[0] != (Segment{Stripe: 0, Off: 100, FileOff: 100, Len: 50}) {
		t.Fatalf("segs = %+v", segs)
	}
	if SplitRange(0, 0, 1<<20, 1) != nil {
		t.Fatal("empty range produced segments")
	}
}

func TestSplitRangeRoundRobin(t *testing.T) {
	// stripeSize 100, 4 stripes: file bytes 0-99 → stripe 0 local 0-99,
	// 100-199 → stripe 1 local 0-99, ..., 400-499 → stripe 0 local
	// 100-199.
	segs := SplitRange(50, 500, 100, 4)
	want := []Segment{
		{Stripe: 0, Off: 50, FileOff: 50, Len: 50},
		{Stripe: 1, Off: 0, FileOff: 100, Len: 100},
		{Stripe: 2, Off: 0, FileOff: 200, Len: 100},
		{Stripe: 3, Off: 0, FileOff: 300, Len: 100},
		{Stripe: 0, Off: 100, FileOff: 400, Len: 100},
		{Stripe: 1, Off: 100, FileOff: 500, Len: 50},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %+v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

// TestQuickSplitRangeInvariants checks, for arbitrary layouts and
// ranges: segments cover the file range exactly and in order, segment
// lengths sum to n, no segment crosses a stripe boundary, and the
// (stripe, local offset) mapping is injective.
func TestQuickSplitRangeInvariants(t *testing.T) {
	f := func(off32 uint32, n16, ss16 uint16, sc8 uint8) bool {
		off := int64(off32 % 100000)
		n := int64(n16%5000) + 1
		stripeSize := int64(ss16%512) + 1
		stripeCount := uint32(sc8%8) + 1
		segs := SplitRange(off, n, stripeSize, stripeCount)

		fileOff := off
		type key struct {
			stripe uint32
			local  int64
		}
		seen := map[key]bool{}
		for _, s := range segs {
			if s.FileOff != fileOff || s.Len <= 0 {
				return false
			}
			if s.Stripe >= stripeCount {
				return false
			}
			if stripeCount > 1 {
				// A segment must not cross a stripe-size boundary in
				// local offsets.
				if s.Off/stripeSize != (s.Off+s.Len-1)/stripeSize {
					return false
				}
				// Verify the byte-level mapping at segment start.
				chunk := s.FileOff / stripeSize
				if uint32(chunk%int64(stripeCount)) != s.Stripe {
					return false
				}
				wantLocal := (chunk/int64(stripeCount))*stripeSize + s.FileOff%stripeSize
				if wantLocal != s.Off {
					return false
				}
			}
			k := key{s.Stripe, s.Off}
			if seen[k] {
				return false
			}
			seen[k] = true
			fileOff += s.Len
		}
		return fileOff == off+n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendStripesSortedUnique: the stripes a range touches come out
// sorted and unique after what dst already holds, which stays as it is.
func TestAppendStripesSortedUnique(t *testing.T) {
	segs := SplitRange(250, 1000, 100, 4)
	stripes := AppendStripes([]uint32{9}, segs)
	if !slices.Equal(stripes, []uint32{9, 0, 1, 2, 3}) {
		t.Fatalf("stripes = %v, want 9 then all 4 in order", stripes)
	}
}

func TestStripeRange(t *testing.T) {
	segs := SplitRange(50, 500, 100, 4)
	lo, hi, ok := StripeRange(segs, 0)
	if !ok || lo != 50 || hi != 200 {
		t.Fatalf("stripe 0 range = [%d, %d), %v", lo, hi, ok)
	}
	if _, _, ok := StripeRange(segs, 9); ok {
		t.Fatal("untouched stripe reported a range")
	}
}

// TestStripeEndMatchesSplitRange: a stripe's end for a file size is the
// end of the last segment SplitRange puts on it for the range [0, size),
// or 0 when it puts none there.
func TestStripeEndMatchesSplitRange(t *testing.T) {
	for _, count := range []uint32{1, 3, 4} {
		const ss = 10
		for size := int64(0); size <= 3*ss*int64(count)+7; size++ {
			want := make([]int64, count)
			for _, seg := range SplitRange(0, size, ss, count) {
				want[seg.Stripe] = max(want[seg.Stripe], seg.Off+seg.Len)
			}
			for st := uint32(0); st < count; st++ {
				if got := StripeEnd(size, ss, count, st); got != want[st] {
					t.Fatalf("StripeEnd(%d, %d, %d, %d) = %d, want %d", size, ss, count, st, got, want[st])
				}
			}
		}
	}
}

// TestFileEndInvertsStripeEnd: every size is the largest FileEnd of the
// stripe ends StripeEnd gives for it, and no stripe's FileEnd passes it;
// a stripe end maps to the file offset just past the byte it ends on.
func TestFileEndInvertsStripeEnd(t *testing.T) {
	for _, count := range []uint32{1, 3, 4} {
		const ss = 10
		for size := int64(0); size <= 3*ss*int64(count)+7; size++ {
			var got int64
			for st := uint32(0); st < count; st++ {
				e := FileEnd(StripeEnd(size, ss, count, st), ss, count, st)
				if e > size {
					t.Fatalf("stripe %d of %d at size %d: FileEnd %d past the size", st, count, size, e)
				}
				got = max(got, e)
			}
			if got != size {
				t.Fatalf("%d stripes at size %d: largest FileEnd %d", count, size, got)
			}
		}
		for st := uint32(0); st < count; st++ {
			for end := int64(1); end <= 3*ss; end++ {
				segs := SplitRange(FileEnd(end, ss, count, st)-1, 1, ss, count)
				if len(segs) != 1 || segs[0].Stripe != st || segs[0].Off != end-1 {
					t.Fatalf("FileEnd(%d, stripe %d of %d): its last byte maps to %+v", end, st, count, segs)
				}
			}
		}
	}
}
