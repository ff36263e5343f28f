package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"ccpfs/internal/sim"
)

func testStoreRoundTrip(t *testing.T, s Store) {
	t.Helper()
	data := []byte("hello stripe world")
	if err := s.WriteAt(1, 100, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := s.ReadAt(1, 100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q, want %q", buf, data)
	}
	// Unwritten ranges read as zeros.
	zero := make([]byte, 8)
	if err := s.ReadAt(1, 1<<20, zero); err != nil {
		t.Fatal(err)
	}
	for _, b := range zero {
		if b != 0 {
			t.Fatal("hole did not read as zeros")
		}
	}
	// Stripes are independent.
	other := make([]byte, len(data))
	if err := s.ReadAt(2, 100, other); err != nil {
		t.Fatal(err)
	}
	for _, b := range other {
		if b != 0 {
			t.Fatal("write leaked across stripes")
		}
	}
}

func TestMemStoreRoundTrip(t *testing.T) { testStoreRoundTrip(t, NewMemStore()) }

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	testStoreRoundTrip(t, fs)
}

func TestSimStoreRoundTrip(t *testing.T) {
	testStoreRoundTrip(t, NewSimStore(NewMemStore(), sim.Fast()))
}

// TestStoreTruncate: on every store, the bytes at and past a cut read
// as zeros — inside a chunk, on a chunk boundary and at 0 — the bytes
// before it stay, a write past the cut does not bring the cut bytes
// back, and a cut past the end changes nothing.
func TestStoreTruncate(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for name, s := range map[string]Store{
		"mem":  NewMemStore(),
		"file": fs,
		"sim":  NewSimStore(NewMemStore(), sim.Fast()),
	} {
		for i, cut := range []int64{chunkSize + 100, 2 * chunkSize, 0} {
			stripe := uint64(i)
			data := make([]byte, 3*chunkSize)
			rand.New(rand.NewSource(int64(i))).Read(data)
			if err := s.WriteAt(stripe, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := s.Truncate(stripe, 4*chunkSize); err != nil {
				t.Fatal(err)
			}
			if err := s.Truncate(stripe, cut); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteAt(stripe, 3*chunkSize-1, []byte{0xEE}); err != nil {
				t.Fatal(err)
			}
			want := append(bytes.Clone(data[:cut]), make([]byte, 3*chunkSize-cut)...)
			want[3*chunkSize-1] = 0xEE
			got := make([]byte, len(want))
			if err := s.ReadAt(stripe, 0, got); err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s store cut at %d: byte %d reads %#x, want %#x", name, cut, i, got[i], want[i])
			}
		}
	}
}

// TestStoreEnd: on every store, a stripe's end is the largest end of a
// write, a truncate sets it exactly — shorter or longer — and a write
// below it leaves it. A never-written stripe ends at 0.
func TestStoreEnd(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for name, s := range map[string]Store{
		"mem":  NewMemStore(),
		"file": fs,
		"sim":  NewSimStore(NewMemStore(), sim.Fast()),
	} {
		for i, step := range []struct {
			op       string
			off, arg int64
			want     int64
		}{
			{"end", 0, 0, 0},
			{"write", 100, 18, 118},
			{"write", 0, 10, 118},
			{"truncate", 0, 50, 50},
			{"truncate", 0, 4 * chunkSize, 4 * chunkSize},
			{"write", chunkSize, 1, 4 * chunkSize},
			{"write", 4 * chunkSize, 7, 4*chunkSize + 7},
			{"truncate", 0, 0, 0},
		} {
			switch step.op {
			case "write":
				err = s.WriteAt(7, step.off, make([]byte, step.arg))
			case "truncate":
				err = s.Truncate(7, step.arg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if end, err := s.End(7); err != nil || end != step.want {
				t.Fatalf("%s store, step %d (%s): end %d (%v), want %d", name, i, step.op, end, err, step.want)
			}
		}
		if end, err := s.End(8); err != nil || end != 0 {
			t.Fatalf("%s store: a never-written stripe ends at %d (%v)", name, end, err)
		}
	}
}

func TestMemStoreChunkBoundaries(t *testing.T) {
	m := NewMemStore()
	// Write straddling a chunk boundary.
	data := make([]byte, 3*chunkSize)
	rand.New(rand.NewSource(1)).Read(data)
	off := int64(chunkSize - 100)
	if err := m.WriteAt(7, off, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := m.ReadAt(7, off, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-chunk round trip corrupted data")
	}
}

func TestMemStoreNegativeOffset(t *testing.T) {
	m := NewMemStore()
	if err := m.WriteAt(1, -1, []byte{1}); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if err := m.ReadAt(1, -1, make([]byte, 1)); err == nil {
		t.Fatal("negative read offset accepted")
	}
}

func TestMemStoreRemove(t *testing.T) {
	m := NewMemStore()
	m.WriteAt(3, 0, []byte{1, 2, 3})
	if m.Bytes() == 0 {
		t.Fatal("no bytes accounted")
	}
	m.Remove(3)
	buf := make([]byte, 3)
	m.ReadAt(3, 0, buf)
	if buf[0] != 0 {
		t.Fatal("data survived Remove")
	}
}

func TestFileStoreRemoveAndReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteAt(1, 0, []byte("abc"))
	if err := fs.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(99); err != nil {
		t.Fatal("removing a nonexistent stripe must be a no-op")
	}
	buf := make([]byte, 3)
	fs.ReadAt(1, 0, buf)
	if buf[0] != 0 {
		t.Fatal("data survived Remove")
	}
	fs.Close()
}

// A read error other than end of file must reach the caller, not read
// as zeros: a stripe whose cached descriptor cannot be read from fails.
func TestFileStoreReadError(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.WriteAt(1, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// Past the end of the file is not an error.
	buf := []byte{9, 9, 9, 9}
	if err := fs.ReadAt(1, 1, buf); err != nil || !bytes.Equal(buf, []byte{'b', 'c', 0, 0}) {
		t.Fatalf("read across EOF = %q, %v", buf, err)
	}
	wo, err := os.OpenFile(filepath.Join(dir, "stripe-1"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	fs.fds[1].Close()
	fs.fds[1] = wo
	fs.mu.Unlock()
	if err := fs.ReadAt(1, 0, make([]byte, 3)); err == nil {
		t.Fatal("read through a write-only descriptor returned no error")
	}
}

func TestSimStoreChargesTime(t *testing.T) {
	hw := sim.Hardware{DiskBandwidth: 10e6, DiskLatency: time.Millisecond}
	s := NewSimStore(NewMemStore(), hw)
	start := time.Now()
	// 1 MB at 10 MB/s = 100 ms + 1 ms latency.
	if err := s.WriteAt(1, 0, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("write took %v, want >= ~100ms of simulated disk time", elapsed)
	}
}

// Property: random writes then reads agree with an in-memory reference.
func TestQuickMemStoreMatchesReference(t *testing.T) {
	f := func(ops []struct {
		Off  uint32
		Data []byte
	}) bool {
		m := NewMemStore()
		ref := make(map[int64]byte)
		for _, op := range ops {
			off := int64(op.Off % (1 << 20))
			if len(op.Data) > 4096 {
				op.Data = op.Data[:4096]
			}
			if err := m.WriteAt(1, off, op.Data); err != nil {
				return false
			}
			for i, b := range op.Data {
				ref[off+int64(i)] = b
			}
		}
		for off, want := range ref {
			buf := make([]byte, 1)
			if err := m.ReadAt(1, off, buf); err != nil || buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreFirstWritesMatchModel checks the three ways a chunk comes
// to exist against a flat byte model: a first write that covers a chunk
// whole (the chunk is a copy of those bytes, or the bytes themselves
// when the write's frame is kept) and a partial one (a zeroed chunk with
// the bytes copied in). Writes are chunk-aligned runs, runs with a
// ragged edge, and small writes in the middle of a chunk, each laid in a
// frame of its exact size that half of them offer to the store; every
// byte of the store, the ones around a partial write included, must
// read as the model says — zero where nothing was written. A frame the
// store did not keep is scribbled over at once, so a store that kept it
// anyway reads wrong.
func TestMemStoreFirstWritesMatchModel(t *testing.T) {
	const chunks = 8
	totalKept := 0
	for seed := int64(1); seed <= 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		m := NewMemStore()
		model := make([]byte, chunks*chunkSize)
		kept := 0
		for w := 0; w < 12; w++ {
			var off, n int64
			switch rnd.Intn(3) {
			case 0: // whole chunks
				off = rnd.Int63n(chunks) * chunkSize
				n = (1 + rnd.Int63n(2)) * chunkSize
			case 1: // whole chunks with a ragged edge
				off = rnd.Int63n(chunks)*chunkSize - rnd.Int63n(100)
				n = chunkSize + rnd.Int63n(chunkSize)
			default: // inside one chunk
				off = rnd.Int63n(chunks)*chunkSize + 1 + rnd.Int63n(chunkSize/2)
				n = 1 + rnd.Int63n(chunkSize/4)
			}
			off = max(off, 0)
			n = min(n, int64(len(model))-off)
			hdr := rnd.Intn(64)
			frame := make([]byte, hdr+int(n))
			data := frame[hdr:]
			rnd.Read(data)
			offered := frame
			if rnd.Intn(2) == 0 {
				offered = nil
			}
			p := m.WriteV(7, []Vec{{off, data}}, offered)
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			copy(model[off:], data)
			if p.Kept() {
				kept++
				continue
			}
			for i := range frame { // the store must keep its own copy
				frame[i] ^= 0xFF
			}
		}
		got := make([]byte, len(model))
		if err := m.ReadAt(7, 0, got); err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(got, model); i >= 0 {
			t.Fatalf("seed %d (%d frames kept): byte %d (chunk %d) reads %#x, want %#x", seed, kept, i, i/chunkSize, got[i], model[i])
		}
		totalKept += kept
	}
	if totalKept == 0 {
		t.Fatal("no frame was kept: the seeds never reach the keep case")
	}
	t.Logf("%d frames kept", totalKept)
}

// TestMemStoreKeepRule: a store keeps an offered frame only when the
// chunks it makes from it are at least 15/16 of the frame's host
// allocation (capacity rounded up to 8 KiB pages). A kept chunk is a
// sub-slice of the frame capped at the chunk's end, so nothing written
// through it reaches the next chunk's bytes; a partial overwrite of it
// lands in place; every other chunk is a copy that does not alias the
// frame. SimStore passes the frame through, and FileStore never keeps it.
func TestMemStoreKeepRule(t *testing.T) {
	const (
		hdr   = 100
		class = 1<<20 + 1<<20/64 // the wire pool's 1 MiB class buffer
	)
	for _, tc := range []struct {
		name     string
		chunks   int   // of data in the frame
		capacity int   // of the frame; 0 for its exact size
		off      int64 // where the data lands
		existing int   // chunks that exist before the write
		sim      bool  // through a SimStore
		want     bool
	}{
		{name: "four chunks, exact frame", chunks: 4, want: true},
		{name: "four chunks through a SimStore", chunks: 4, sim: true, want: true},
		{name: "one chunk: 72 KiB of pages", chunks: 1},
		{name: "nine chunks in a 1 MiB class buffer", chunks: 9, capacity: class},
		{name: "sixteen chunks in a 1 MiB class buffer", chunks: 16, capacity: class, want: true},
		{name: "ragged: three of four chunks whole", chunks: 4, off: hdr},
		{name: "one of four chunks exists", chunks: 4, existing: 1},
		{name: "two of sixteen chunks exist", chunks: 16, capacity: class, existing: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.chunks * chunkSize
			frame := make([]byte, hdr+n, max(tc.capacity, hdr+n))
			data := frame[hdr:]
			rand.New(rand.NewSource(int64(n))).Read(data)
			want := bytes.Clone(data)
			m := NewMemStore()
			var s Store = m
			if tc.sim {
				s = NewSimStore(m, sim.Fast())
			}
			old := bytes.Repeat([]byte{0xEE}, chunkSize)
			for i := range tc.existing {
				if err := m.WriteAt(1, tc.off+int64(i)*chunkSize, old); err != nil {
					t.Fatal(err)
				}
			}
			p := s.WriteV(1, []Vec{{tc.off, data}}, frame)
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			if p.Kept() != tc.want {
				t.Fatalf("kept = %v, want %v", p.Kept(), tc.want)
			}
			chunks := m.stripes[1]
			for ci, c := range chunks {
				at := ci*chunkSize - tc.off // c's offset in data
				aliases := at >= 0 && at < int64(len(data)) && &c[0] == &data[at]
				switch {
				case aliases && !tc.want:
					t.Errorf("chunk %d aliases a frame the store did not keep", ci)
				case tc.want && int(ci) >= tc.existing && !aliases:
					t.Errorf("chunk %d is a copy of a kept frame's bytes", ci)
				case cap(c) != chunkSize:
					t.Errorf("chunk %d has capacity %d, want %d", ci, cap(c), chunkSize)
				}
			}
			if !tc.want {
				for i := range frame { // the caller still owns it
					frame[i] = 0xA5
				}
			}
			// A partial overwrite of the last (possibly kept) chunk lands.
			patch := []byte{1, 2, 3}
			at := tc.off + int64(n) - chunkSize/2
			if err := s.WriteAt(1, at, patch); err != nil {
				t.Fatal(err)
			}
			copy(want[at-tc.off:], patch)
			got := make([]byte, n)
			if err := s.ReadAt(1, tc.off, got); err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("byte %d reads %#x, want %#x", i, got[i], want[i])
			}
		})
	}

	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	frame := make([]byte, 16*chunkSize)
	rand.New(rand.NewSource(2)).Read(frame)
	want := bytes.Clone(frame)
	p := fs.WriteV(1, []Vec{{0, frame}}, frame)
	if err := p.Wait(); err != nil || p.Kept() {
		t.Fatalf("FileStore: err %v, kept %v; want a plain write", err, p.Kept())
	}
	clear(frame)
	got := make([]byte, len(want))
	if err := fs.ReadAt(1, 0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("FileStore: read back err %v, equal %v", err, bytes.Equal(got, want))
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func BenchmarkMemStoreWrite64K(b *testing.B) {
	m := NewMemStore()
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.WriteAt(1, int64(i%1024)*int64(len(data)), data)
	}
}
