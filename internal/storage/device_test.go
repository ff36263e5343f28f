package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/sim"
)

// Device parameters chosen so that every transfer time is a whole number
// of nanoseconds: 1 byte per ns, 20 µs per operation.
const (
	tBW  = 1e9
	tLat = 20 * time.Microsecond
	kib  = 1 << 10
)

func xfer(n int64) time.Duration { return sim.TransferTime(n, tBW) }

// virtualDevice runs f inside a virtual run with a fresh device over a
// MemStore. since reports the virtual time elapsed since the run began.
func virtualDevice(t *testing.T, seed int64, f func(clk sim.Clock, s *SimStore, since func() time.Duration)) {
	t.Helper()
	v := sim.NewVClock(seed)
	clk := sim.Virtual(v)
	v.Run(func() {
		s := NewSimStore(NewMemStore(), sim.Hardware{DiskBandwidth: tBW, DiskLatency: tLat, Clock: clk})
		t0 := clk.Now()
		f(clk, s, func() time.Duration { return clk.Since(t0) })
	})
}

// occupy starts a write of n bytes on a stripe no test touches, so the
// device is busy until lat + n/bw and what is submitted next must queue.
func occupy(clk sim.Clock, g *sim.Group, s *SimStore, n int) time.Duration {
	g.Go(func() { s.WriteAt(999, 0, make([]byte, n)) })
	clk.Sleep(time.Nanosecond) // let it reach the device first
	return tLat + xfer(int64(n))
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// writeScribbled writes data and overwrites it as soon as WriteV returns,
// while the request may still be queued: the store must have taken the
// bytes by then.
func writeScribbled(s *SimStore, stripe uint64, off int64, data []byte) error {
	p := s.WriteV(stripe, []Vec{{off, data}}, nil)
	for i := range data {
		data[i] = 0xA5
	}
	return p.Wait()
}

func TestDeviceIdleCost(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const n = 64*kib + 123
		if err := s.WriteAt(1, 4096, fill(7, n)); err != nil {
			t.Fatal(err)
		}
		if got, want := since(), tLat+xfer(n); got != want {
			t.Fatalf("idle write took %v, want %v", got, want)
		}
		buf := make([]byte, n)
		if err := s.ReadAt(1, 4096, buf); err != nil {
			t.Fatal(err)
		}
		if got, want := since(), 2*(tLat+xfer(n)); got != want {
			t.Fatalf("idle write + read took %v, want %v", got, want)
		}
		if !bytes.Equal(buf, fill(7, n)) {
			t.Fatal("read back wrong bytes")
		}
		st := &s.Stats
		if st.WriteOps.Load() != 1 || st.ReadOps.Load() != 1 || st.BusyNs.Load() != int64(2*(tLat+xfer(n))) {
			t.Fatalf("ops w=%d r=%d busy=%d", st.WriteOps.Load(), st.ReadOps.Load(), st.BusyNs.Load())
		}
	})
}

func TestDeviceMergesAdjacentWrites(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const k, n = 8, 64 * kib
		g := sim.NewGroup(clk)
		free := occupy(clk, g, s, n)
		// Submitted out of address order, from k callers: the run grows at
		// both ends and over several passes.
		order := []int{3, 5, 4, 7, 6, 0, 2, 1}
		done := make([]time.Duration, k)
		for _, i := range order {
			g.Go(func() {
				writeScribbled(s, 1, int64(i*n), fill(byte(i+1), n))
				done[i] = since()
			})
		}
		g.Wait()
		for i := range done {
			if want := free + tLat + xfer(int64((i+1)*n)); done[i] != want {
				t.Errorf("member %d done at %v, want %v", i, done[i], want)
			}
		}
		st := &s.Stats
		if st.WriteRequests.Load() != k+1 || st.WriteOps.Load() != 2 {
			t.Fatalf("requests=%d ops=%d, want %d and 2", st.WriteRequests.Load(), st.WriteOps.Load(), k+1)
		}
		buf := make([]byte, k*n)
		s.inner.ReadAt(1, 0, buf)
		for i := 0; i < k; i++ {
			if !bytes.Equal(buf[i*n:(i+1)*n], fill(byte(i+1), n)) {
				t.Fatalf("extent %d holds wrong bytes", i)
			}
		}
	})
}

// A waiting write that lies wholly inside the run being dispatched
// rides along with it: the store already holds its bytes, so the run's
// one transfer puts them on media, and it is done when the transfer
// passes its own end. A write that only partly overlaps the run, one
// behind an overlapping waiting read, and one on another stripe each
// wait for an operation of their own.
func TestDeviceAbsorbsContainedWrites(t *testing.T) {
	const n = 16 * kib
	type req struct {
		read     bool
		stripe   uint64
		off, end int64
	}
	for _, tc := range []struct {
		name string
		reqs []req
		// done after the device falls free, and the operations (the
		// blocker's included) the device performs
		want              []time.Duration
		writeOps, readOps int64
	}{
		{"identical", []req{{false, 1, 0, n}, {false, 1, 0, n}, {false, 1, 0, n}},
			[]time.Duration{tLat + xfer(n), tLat + xfer(n), tLat + xfer(n)}, 2, 0},
		{"contained", []req{{false, 1, 0, 4 * n}, {false, 1, n, 2 * n}},
			[]time.Duration{tLat + xfer(4*n), tLat + xfer(2*n)}, 2, 0},
		{"partial", []req{{false, 1, 0, 2 * n}, {false, 1, n, 3 * n}},
			[]time.Duration{tLat + xfer(2*n), 2*tLat + xfer(4*n)}, 3, 0},
		{"behind read", []req{{false, 1, 0, 2 * n}, {true, 1, 0, n}, {false, 1, 0, n}},
			[]time.Duration{tLat + xfer(2*n), 2*tLat + xfer(3*n), 3*tLat + xfer(4*n)}, 3, 1},
		{"other stripe", []req{{false, 1, 0, n}, {false, 2, 0, n}},
			[]time.Duration{tLat + xfer(n), 2*tLat + xfer(2*n)}, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
				g := sim.NewGroup(clk)
				free := occupy(clk, g, s, n)
				ref := map[uint64][]byte{1: make([]byte, 4*n), 2: make([]byte, 4*n)}
				done := make([]time.Duration, len(tc.reqs))
				for i, r := range tc.reqs {
					if r.read {
						want := bytes.Clone(ref[r.stripe][r.off:r.end])
						g.Go(func() {
							buf := make([]byte, r.end-r.off)
							s.ReadAt(r.stripe, r.off, buf)
							done[i] = since()
							if !bytes.Equal(buf, want) {
								t.Errorf("read %d did not see exactly the writes before it", i)
							}
						})
						continue
					}
					data := fill(byte(i+1), int(r.end-r.off))
					copy(ref[r.stripe][r.off:], data)
					g.Go(func() {
						writeScribbled(s, r.stripe, r.off, data)
						done[i] = since()
					})
				}
				g.Wait()
				for i := range done {
					if want := free + tc.want[i]; done[i] != want {
						t.Errorf("request %d done at %v, want %v", i, done[i], want)
					}
				}
				st := &s.Stats
				if st.WriteOps.Load() != tc.writeOps || st.ReadOps.Load() != tc.readOps {
					t.Errorf("write ops=%d read ops=%d, want %d and %d", st.WriteOps.Load(), st.ReadOps.Load(), tc.writeOps, tc.readOps)
				}
				for stripe, want := range ref {
					buf := make([]byte, len(want))
					s.inner.ReadAt(stripe, 0, buf)
					if !bytes.Equal(buf, want) {
						t.Errorf("stripe %d differs from sequential application", stripe)
					}
				}
			})
		})
	}
}

// Remove drops the stripe from the inner store at once, without a
// device operation: a read afterwards sees zeros.
func TestDeviceRemove(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const n = 8 * kib
		if err := s.WriteAt(1, 0, fill(4, n)); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(1); err != nil {
			t.Fatal(err)
		}
		buf := fill(0xFF, n)
		if err := s.ReadAt(1, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, n)) {
			t.Fatal("removed stripe read back non-zero bytes")
		}
		if st := &s.Stats; st.WriteOps.Load() != 1 || st.ReadOps.Load() != 1 {
			t.Fatalf("ops w=%d r=%d, want 1 and 1", st.WriteOps.Load(), st.ReadOps.Load())
		}
	})
}

func TestDeviceNonAdjacentFIFO(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const k, n = 6, 16 * kib
		g := sim.NewGroup(clk)
		free := occupy(clk, g, s, n)
		done := make([]time.Duration, k)
		for i := 0; i < k; i++ {
			g.Go(func() {
				// A gap after every extent, and descending addresses.
				s.WriteAt(1, int64((k-i)*2*n), fill(1, n))
				done[i] = since()
			})
		}
		g.Wait()
		for i := range done {
			if want := free + time.Duration(i+1)*(tLat+xfer(n)); done[i] != want {
				t.Errorf("request %d done at %v, want %v", i, done[i], want)
			}
		}
		if ops := s.Stats.WriteOps.Load(); ops != k+1 {
			t.Fatalf("ops=%d, want %d", ops, k+1)
		}
	})
}

func TestDeviceVectoredWriteMergesOnIdleDevice(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const n = 8 * kib
		vec := []Vec{{0, fill(1, n)}, {n, fill(2, n)}, {4 * n, fill(3, n)}, {2 * n, fill(4, n)}}
		if err := s.WriteV(1, vec, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		// [0,3n) is one run, [4n,5n) a second.
		if got, want := since(), 2*tLat+xfer(4*n); got != want {
			t.Fatalf("vectored write took %v, want %v", got, want)
		}
		if ops := s.Stats.WriteOps.Load(); ops != 2 {
			t.Fatalf("ops=%d, want 2", ops)
		}
		if s.WriteV(1, nil, nil).Wait() != nil || s.WriteV(1, []Vec{{0, nil}}, nil).Wait() != nil {
			t.Fatal("empty vectored write failed")
		}
	})
}

func TestDeviceSharesIdenticalReads(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const k, n = 64, 64 * kib
		s.inner.WriteAt(1, 0, fill(9, n))
		g := sim.NewGroup(clk)
		free := occupy(clk, g, s, n)
		done := make([]time.Duration, k)
		for i := 0; i < k; i++ {
			g.Go(func() {
				buf := make([]byte, n)
				s.ReadAt(1, 0, buf)
				done[i] = since()
				if !bytes.Equal(buf, fill(9, n)) {
					t.Errorf("reader %d got wrong bytes", i)
				}
			})
		}
		g.Wait()
		for i := range done {
			if want := free + tLat + xfer(n); done[i] != want {
				t.Fatalf("reader %d done at %v, want %v", i, done[i], want)
			}
		}
		st := &s.Stats
		if st.ReadRequests.Load() != k || st.ReadOps.Load() != 1 {
			t.Fatalf("read requests=%d ops=%d, want %d and 1", st.ReadRequests.Load(), st.ReadOps.Load(), k)
		}
	})
}

func TestDeviceContainedAndAdjacentReads(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const n = 16 * kib
		g := sim.NewGroup(clk)
		free := occupy(clk, g, s, n)
		ranges := [][2]int64{{0, 2 * n}, {n / 2, n}, {2 * n, 3 * n}, {5 * n, 6 * n}}
		done := make([]time.Duration, len(ranges))
		for i, r := range ranges {
			g.Go(func() {
				s.ReadAt(1, r[0], make([]byte, r[1]-r[0]))
				done[i] = since()
			})
		}
		g.Wait()
		// One run [0,3n): each member is done when the transfer passes its
		// end. [5n,6n) is a second operation.
		runEnd := free + tLat + xfer(3*n)
		want := []time.Duration{free + tLat + xfer(2*n), free + tLat + xfer(n), runEnd, runEnd + tLat + xfer(n)}
		for i := range want {
			if done[i] != want[i] {
				t.Errorf("read %d done at %v, want %v", i, done[i], want[i])
			}
		}
		if ops := s.Stats.ReadOps.Load(); ops != 2 {
			t.Fatalf("read ops=%d, want 2", ops)
		}
	})
}

// A read that arrives while the device serves a read run holding all of
// its bytes is served by that run: it is done when the transfer passes
// its own last byte, or at once if the transfer already has, and costs
// no operation. A read that reaches past the run, one on another
// stripe, one during a write run and one behind a waiting write it
// overlaps each wait for an operation of their own.
func TestDeviceReadJoinsRunInService(t *testing.T) {
	const n = 16 * kib
	type req struct {
		at       time.Duration // submission, after the first request's
		read     bool
		stripe   uint64
		off, end int64
		done     time.Duration
	}
	runEnd := tLat + xfer(4*n) // of the first request, [0,4n) from time 0
	for _, tc := range []struct {
		name              string
		reqs              []req
		readOps, writeOps int64
	}{
		{"same range", []req{{0, true, 1, 0, 4 * n, runEnd}, {30 * time.Microsecond, true, 1, 0, 4 * n, runEnd}}, 1, 0},
		{"contained ahead", []req{{0, true, 1, 0, 4 * n, runEnd}, {25 * time.Microsecond, true, 1, n, 2 * n, tLat + xfer(2*n)}}, 1, 0},
		{"contained passed", []req{{0, true, 1, 0, 4 * n, runEnd}, {60 * time.Microsecond, true, 1, n, 2 * n, 60 * time.Microsecond}}, 1, 0},
		{"past the run", []req{{0, true, 1, 0, 4 * n, runEnd}, {30 * time.Microsecond, true, 1, 3 * n, 5 * n, runEnd + tLat + xfer(2*n)}}, 2, 0},
		{"other stripe", []req{{0, true, 1, 0, 4 * n, runEnd}, {30 * time.Microsecond, true, 2, 0, n, runEnd + tLat + xfer(n)}}, 2, 0},
		{"write run", []req{{0, false, 1, 0, 4 * n, runEnd}, {30 * time.Microsecond, true, 1, 0, n, runEnd + tLat + xfer(n)}}, 1, 1},
		{"behind a write", []req{
			{0, true, 1, 0, 4 * n, runEnd},
			{30 * time.Microsecond, false, 1, 0, n, runEnd + tLat + xfer(n)},
			{40 * time.Microsecond, true, 1, 0, n, runEnd + 2*(tLat+xfer(n))},
		}, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
				ref := map[uint64][]byte{1: fill(9, 8*n), 2: fill(8, 8*n)}
				for stripe, b := range ref {
					s.inner.WriteAt(stripe, 0, bytes.Clone(b))
				}
				g := sim.NewGroup(clk)
				done := make([]time.Duration, len(tc.reqs))
				var reads int64
				for i, r := range tc.reqs {
					var data, want []byte
					if r.read {
						reads++
						want = bytes.Clone(ref[r.stripe][r.off:r.end])
					} else {
						data = fill(byte(i+1), int(r.end-r.off))
						copy(ref[r.stripe][r.off:], data)
					}
					g.Go(func() {
						if r.at > 0 {
							clk.Sleep(r.at)
						}
						if !r.read {
							s.WriteAt(r.stripe, r.off, data)
						} else if buf := make([]byte, len(want)); s.ReadAt(r.stripe, r.off, buf) != nil || !bytes.Equal(buf, want) {
							t.Errorf("read %d did not return the bytes of strict FIFO service", i)
						}
						done[i] = since()
					})
				}
				g.Wait()
				for i, r := range tc.reqs {
					if done[i] != r.done {
						t.Errorf("request %d done at %v, want %v", i, done[i], r.done)
					}
				}
				st := &s.Stats
				if st.ReadRequests.Load() != reads || st.ReadOps.Load() != tc.readOps || st.WriteOps.Load() != tc.writeOps {
					t.Errorf("read requests=%d read ops=%d write ops=%d, want %d, %d and %d",
						st.ReadRequests.Load(), st.ReadOps.Load(), st.WriteOps.Load(), reads, tc.readOps, tc.writeOps)
				}
			})
		})
	}
}

func TestDeviceRunCap(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const k, n = 20, 64 * kib // 1.25 MiB of adjacent extents
		g := sim.NewGroup(clk)
		free := occupy(clk, g, s, n)
		var last time.Duration
		for i := 0; i < k; i++ {
			g.Go(func() {
				s.WriteAt(1, int64(i*n), fill(1, n))
				last = max(last, since())
			})
		}
		g.Wait()
		if want := free + 2*tLat + xfer(k*n); last != want {
			t.Fatalf("last extent done at %v, want %v", last, want)
		}
		if ops := s.Stats.WriteOps.Load(); ops != 3 {
			t.Fatalf("ops=%d, want 3 (blocker, 16 extents, 4 extents)", ops)
		}
		// A request larger than the cap is served whole, alone.
		t0 := since()
		s.WriteAt(2, 0, make([]byte, 2*maxRun))
		if got, want := since()-t0, tLat+xfer(2*maxRun); got != want {
			t.Fatalf("oversize write took %v, want %v", got, want)
		}
	})
}

// An adjacent write may not be pulled past an earlier request it
// overlaps, whether that one writes or reads. The reads see exactly the
// writes submitted before them, even though the write they follow is
// scribbled over while it still waits for the device.
func TestDeviceNoOvertaking(t *testing.T) {
	virtualDevice(t, 1, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		const n = 4 * kib
		g := sim.NewGroup(clk)
		occupy(clk, g, s, n)
		var readDone, lateDone time.Duration
		got, after := make([]byte, n), make([]byte, n)
		g.Go(func() { s.WriteAt(1, 0, fill(1, n)) })   // head of the next run
		g.Go(func() { s.WriteAt(1, 2*n, fill(2, n)) }) // not adjacent yet
		g.Go(func() { s.ReadAt(1, n, got); readDone = since() })
		g.Go(func() { writeScribbled(s, 1, n, fill(3, n)); lateDone = since() }) // adjacent to the head, but behind the read
		g.Go(func() { s.ReadAt(1, n, after) })
		g.Wait()
		if !bytes.Equal(got, make([]byte, n)) {
			t.Fatal("read saw the write queued behind it")
		}
		if !bytes.Equal(after, fill(3, n)) {
			t.Fatal("read behind a scribbled write did not see its original bytes")
		}
		if lateDone <= readDone {
			t.Fatalf("write behind the read done at %v, read at %v", lateDone, readDone)
		}
	})
}

// fifoOp is one request of the property test.
type fifoOp struct {
	stripe uint64
	vec    []Vec  // write
	off    int64  // read
	buf    []byte // read
	want   []byte // read: what strict FIFO service returns
	done   time.Duration
}

func (o *fifoOp) overlaps(p *fifoOp) bool {
	if o.stripe != p.stripe || (o.vec == nil && p.vec == nil) {
		return false
	}
	spans := func(q *fifoOp) [][2]int64 {
		if q.vec == nil {
			return [][2]int64{{q.off, q.off + int64(len(q.buf))}}
		}
		var out [][2]int64
		for _, v := range q.vec {
			out = append(out, [2]int64{v.Off, v.Off + int64(len(v.Data))})
		}
		return out
	}
	for _, a := range spans(o) {
		for _, b := range spans(p) {
			if a[0] < b[1] && b[0] < a[1] {
				return true
			}
		}
	}
	return false
}

// vecEnd is the end of a one-extent write.
func vecEnd(o *fifoOp) int64 { return o.vec[0].Off + int64(len(o.vec[0].Data)) }

// runFIFO submits a random mix of overlapping reads and (vectored)
// writes, every write with its own fill byte, all queued behind a busy
// device, and returns the ops and the final store image.
func runFIFO(t *testing.T, seed int64) ([]*fifoOp, [2][]byte) {
	const unit, units, nops = 512, 48, 120
	rng := rand.New(rand.NewSource(seed))
	var ref, final [2][]byte
	for i := range ref {
		ref[i] = make([]byte, unit*units)
		final[i] = make([]byte, unit*units)
	}
	ops := make([]*fifoOp, nops)
	for i := range ops {
		o := &fifoOp{stripe: uint64(rng.Intn(2))}
		span := func() (int64, int) {
			a := rng.Intn(units)
			return int64(a * unit), (1 + rng.Intn(min(6, units-a))) * unit
		}
		if rng.Intn(3) == 0 {
			off, n := span()
			o.off, o.buf = off, make([]byte, n)
			o.want = bytes.Clone(ref[o.stripe][off : off+int64(n)])
		} else {
			for e := 1 + rng.Intn(3); e > 0; e-- {
				off, n := span()
				o.vec = append(o.vec, Vec{off, fill(byte(i+1), n)})
				copy(ref[o.stripe][off:], o.vec[len(o.vec)-1].Data)
			}
		}
		ops[i] = o
	}
	virtualDevice(t, seed, func(clk sim.Clock, s *SimStore, since func() time.Duration) {
		g := sim.NewGroup(clk)
		occupy(clk, g, s, 4*kib)
		for _, o := range ops {
			g.Go(func() { // spawn order is submission order
				if o.vec != nil {
					s.WriteV(o.stripe, o.vec, nil).Wait()
				} else {
					s.ReadAt(o.stripe, o.off, o.buf)
				}
				o.done = since()
			})
		}
		g.Wait()
		for i := range final {
			s.inner.ReadAt(uint64(i), 0, final[i])
		}
		if st := &s.Stats; st.WriteOps.Load()+st.ReadOps.Load() >= st.WriteRequests.Load()+st.ReadRequests.Load() {
			t.Errorf("seed %d: nothing merged", seed)
		}
	})
	for i := range final {
		if !bytes.Equal(final[i], ref[i]) {
			t.Fatalf("seed %d: stripe %d differs from sequential FIFO application", seed, i)
		}
	}
	return ops, final
}

func TestDeviceOverlapsKeepFIFOOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		ops, _ := runFIFO(t, seed)
		for j, o := range ops {
			if o.want != nil && !bytes.Equal(o.buf, o.want) {
				t.Fatalf("seed %d: read %d did not see exactly the writes queued before it", seed, j)
			}
			// A vectored write is done when its last extent is, which says
			// nothing about the extent that overlapped: compare times only
			// between single-request ops.
			for i, p := range ops[:j] {
				if len(o.vec) > 1 || len(p.vec) > 1 || !o.overlaps(p) || o.done > p.done {
					continue
				}
				// A write contained in an earlier write's run rides along
				// with it: done when the transfer passes its own end, which
				// may come first, by the bytes between the two ends (1 byte
				// per ns, give or take the nanosecond TransferTime truncates).
				if gap := p.done - o.done - time.Duration(vecEnd(p)-vecEnd(o)); o.vec != nil && p.vec != nil && gap >= -1 && gap <= 1 {
					continue
				}
				t.Fatalf("seed %d: op %d done at %v, not after overlapping earlier op %d at %v", seed, j, o.done, i, p.done)
			}
		}
	}
}

func TestDeviceSameSeedSameSchedule(t *testing.T) {
	a, _ := runFIFO(t, 7)
	b, _ := runFIFO(t, 7)
	for i := range a {
		if a[i].done != b[i].done {
			t.Fatalf("op %d done at %v in one run and %v in the other", i, a[i].done, b[i].done)
		}
	}
}

// TestDeviceWallClockStress drives the queue from real goroutines: each
// owns a slot it rewrites and reads back, neighbouring slots are
// byte-adjacent so runs form, and all share one hot range they read.
func TestDeviceWallClockStress(t *testing.T) {
	s := NewSimStore(NewMemStore(), sim.Hardware{DiskBandwidth: 4e9, DiskLatency: 20 * time.Microsecond})
	const workers, rounds, n = 8, 150, 4 * kib
	s.inner.WriteAt(2, 0, fill(0xEE, n))
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, hot := make([]byte, 2*n), make([]byte, n)
			for r := 0; r < rounds; r++ {
				b := byte(w*rounds + r)
				base := int64(w * 2 * n)
				if err := s.WriteV(1, []Vec{{base, fill(b, n)}, {base + n, fill(b, n)}}, nil).Wait(); err != nil {
					errs <- err
					return
				}
				if err := s.ReadAt(1, base, buf); err != nil || !bytes.Equal(buf, fill(b, 2*n)) {
					errs <- fmt.Errorf("worker %d round %d: read back wrong bytes (%v)", w, r, err)
					return
				}
				if err := s.ReadAt(2, 0, hot); err != nil || !bytes.Equal(hot, fill(0xEE, n)) {
					errs <- fmt.Errorf("worker %d round %d: hot range wrong (%v)", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := &s.Stats
	if got, want := st.WriteRequests.Load(), int64(workers*rounds*2); got != want {
		t.Fatalf("write requests=%d, want %d", got, want)
	}
	if st.WriteOps.Load() >= st.WriteRequests.Load() {
		t.Fatalf("no write merged: %d ops for %d requests", st.WriteOps.Load(), st.WriteRequests.Load())
	}
	if st.QueueDepth.Count() != st.WriteOps.Load()+st.ReadOps.Load() {
		t.Fatalf("queue depth sampled %d times for %d ops", st.QueueDepth.Count(), st.WriteOps.Load()+st.ReadOps.Load())
	}
}
