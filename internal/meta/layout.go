package meta

import "slices"

// This file defines the stripe layout conventions shared by clients and
// data servers: how file bytes map onto stripes, how a stripe maps onto
// a lock resource, and how resources are placed on servers by hashing
// their IDs (§IV of the paper).

// ResourceID packs (FID, stripe index) into the identifier shared by a
// stripe and its lock resource. Stripe indexes are bounded well below
// 2^16 in practice (the paper evaluates up to 16).
func ResourceID(fid uint64, stripe uint32) uint64 {
	return fid<<16 | uint64(stripe&0xFFFF)
}

// SplitResource is the inverse of ResourceID.
func SplitResource(rid uint64) (fid uint64, stripe uint32) {
	return rid >> 16, uint32(rid & 0xFFFF)
}

// PlaceStripe maps a resource to one of n data servers by hashing the
// ID, as ccPFS distributes stripes (and their lock resources) among
// servers.
func PlaceStripe(rid uint64, n int) int {
	if n <= 1 {
		return 0
	}
	// Fibonacci hashing spreads consecutive stripe indexes of one file
	// across servers.
	h := rid * 0x9E3779B97F4A7C15
	return int(h % uint64(n))
}

// Segment is a contiguous piece of a file-level byte range mapped onto
// one stripe.
type Segment struct {
	Stripe uint32
	// Off is the stripe-local offset; locks and storage are addressed in
	// stripe-local bytes.
	Off int64
	// FileOff is the original file-level offset of this piece.
	FileOff int64
	// Len is the piece length in bytes.
	Len int64
}

// SplitRange maps the file-level range [off, off+n) onto stripe-local
// segments under the round-robin striping layout: file byte b lives in
// stripe (b/stripeSize) mod stripeCount at stripe-local offset
// (b/(stripeSize*stripeCount))*stripeSize + b mod stripeSize.
// Segments are returned in ascending file offset order.
func SplitRange(off, n, stripeSize int64, stripeCount uint32) []Segment {
	if n <= 0 {
		return nil
	}
	return AppendSplit(make([]Segment, 0, (off+n-1)/stripeSize-off/stripeSize+1), off, n, stripeSize, stripeCount)
}

// AppendSplit is SplitRange appending to dst, so a caller with a buffer
// of its own splits without allocating.
func AppendSplit(dst []Segment, off, n, stripeSize int64, stripeCount uint32) []Segment {
	if n <= 0 {
		return dst
	}
	if stripeCount <= 1 {
		return append(dst, Segment{Stripe: 0, Off: off, FileOff: off, Len: n})
	}
	sc := int64(stripeCount)
	for n > 0 {
		chunk := off / stripeSize // global chunk index
		stripe := uint32(chunk % sc)
		local := (chunk/sc)*stripeSize + off%stripeSize
		l := stripeSize - off%stripeSize
		if l > n {
			l = n
		}
		dst = append(dst, Segment{Stripe: stripe, Off: local, FileOff: off, Len: l})
		off += l
		n -= l
	}
	return dst
}

// StripeEnd returns the stripe-local end of a file of size bytes on
// stripe: how many of the file's bytes the stripe holds, counted from
// its start, under the layout SplitRange maps.
func StripeEnd(size, stripeSize int64, stripeCount uint32, stripe uint32) int64 {
	row := stripeSize * int64(stripeCount)
	rest := size%row - int64(stripe)*stripeSize
	return size/row*stripeSize + min(max(rest, 0), stripeSize)
}

// FileEnd is StripeEnd the other way round: the file-level end of the
// first end bytes of stripe, the offset just past the file byte that
// its byte end-1 holds, and 0 when end is 0. A file whose stripes end
// at the given ends has the largest of their FileEnds as its size.
func FileEnd(end, stripeSize int64, stripeCount uint32, stripe uint32) int64 {
	if end <= 0 {
		return 0
	}
	last := end - 1
	return (last/stripeSize*int64(stripeCount)+int64(stripe))*stripeSize + last%stripeSize + 1
}

// AppendStripes appends the distinct stripes touched by the segments to
// dst, in ascending stripe order — the lock acquisition order that
// avoids deadlocks for multi-stripe writes.
func AppendStripes(dst []uint32, segs []Segment) []uint32 {
	base := len(dst)
	for _, s := range segs {
		if !slices.Contains(dst[base:], s.Stripe) {
			dst = append(dst, s.Stripe)
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// StripeRange returns the smallest stripe-local range covering every
// segment of the given stripe.
func StripeRange(segs []Segment, stripe uint32) (start, end int64, ok bool) {
	for _, s := range segs {
		if s.Stripe != stripe {
			continue
		}
		if !ok {
			start, end, ok = s.Off, s.Off+s.Len, true
			continue
		}
		if s.Off < start {
			start = s.Off
		}
		if s.Off+s.Len > end {
			end = s.Off + s.Len
		}
	}
	return start, end, ok
}
