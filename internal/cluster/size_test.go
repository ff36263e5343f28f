package cluster

import (
	"bytes"
	"io"
	"testing"

	"ccpfs/internal/dlm"
)

// TestReadAfterTruncateReturnsEOF: a client that read a file before
// another client truncated it gets io.EOF at the old offsets, not the
// zeros a stale size would let it read: its read lock was revoked by
// the truncate, and with it what it knew of where the stripe ends, so
// its next read learns the end from the data server's reply.
func TestReadAfterTruncateReturnsEOF(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
	cls := newClients(t, c, 2)
	fa, err := cls[0].Create("/f", 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.WriteAt(pattern(1, 256<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := fa.Fsync(); err != nil {
		t.Fatal(err)
	}
	fb, err := cls[1].Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if n, err := fb.ReadAt(buf, 0); n != len(buf) || err != nil {
		t.Fatalf("read before the truncate: %d bytes (%v)", n, err)
	}
	if err := fa.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if n, err := fb.ReadAt(buf, 0); n != 0 || err != io.EOF {
		t.Fatalf("read after a truncate to 0: %d bytes (%v), want 0, io.EOF", n, err)
	}
}

// TestShortStripeReadIsHole: a read that ends short on its own stripe
// while a later stripe holds flushed data is inside the file: it reads
// the rest as zeros, a hole, and returns no io.EOF.
func TestShortStripeReadIsHole(t *testing.T) {
	const stripe = 4096
	c := newCluster(t, Options{Servers: 2, Policy: dlm.SeqDLM()})
	cls := newClients(t, c, 2)
	fw, err := cls[0].Create("/h", stripe, 2)
	if err != nil {
		t.Fatal(err)
	}
	head, tail := pattern(1, 100), pattern(2, 100)
	if _, err := fw.WriteAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteAt(tail, stripe); err != nil {
		t.Fatal(err)
	}
	if err := fw.Fsync(); err != nil {
		t.Fatal(err)
	}
	fr, err := cls[1].Open("/h")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, stripe) // stripe 0 alone
	if n, err := fr.ReadAt(got, 0); n != stripe || err != nil {
		t.Fatalf("read of stripe 0: %d bytes (%v), want %d, nil", n, err, stripe)
	}
	want := append(bytes.Clone(head), make([]byte, stripe-len(head))...)
	if !bytes.Equal(got, want) {
		t.Fatal("stripe 0 past its data does not read as zeros")
	}
	if n, err := fr.ReadAt(got, 100); n != stripe || err != nil {
		t.Fatalf("read across the hole: %d bytes (%v), want %d, nil", n, err, stripe)
	}
	if !bytes.Equal(got[stripe-100:], tail) {
		t.Fatal("read across the hole misses stripe 1's data")
	}
	if n, err := fr.ReadAt(got, 100+stripe); n != 0 || err != io.EOF {
		t.Fatalf("read past the end: %d bytes (%v), want 0, io.EOF", n, err)
	}
}

// TestExtendingTruncateReadsZeros: a truncate past the end extends the
// file, for the truncating client and for another: Size shows the new
// size, and the file reads as zeros up to it.
func TestExtendingTruncateReadsZeros(t *testing.T) {
	const size = 10000
	c := newCluster(t, Options{Servers: 2, Policy: dlm.SeqDLM()})
	cls := newClients(t, c, 2)
	fw, err := cls[0].Create("/x", 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1, 100)
	if _, err := fw.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fw.Truncate(size); err != nil {
		t.Fatal(err)
	}
	fr, err := cls[1].Open("/x")
	if err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Clone(data), make([]byte, size-len(data))...)
	for who, f := range map[string]interface {
		Size() (int64, error)
		ReadAt([]byte, int64) (int, error)
	}{"truncator": fw, "other": fr} {
		if n, err := f.Size(); n != size || err != nil {
			t.Fatalf("%s: size %d (%v), want %d", who, n, err, size)
		}
		got := make([]byte, size+1)
		if n, err := f.ReadAt(got, 0); n != size || err != io.EOF {
			t.Fatalf("%s: read %d bytes (%v), want %d, io.EOF", who, n, err, size)
		}
		if !bytes.Equal(got[:size], want) {
			t.Fatalf("%s: the extended file does not read as its data and zeros", who)
		}
	}
}

// TestAppendLandsPastEarlierWrites: an append lands past every write
// that completed before it, from the same client and from another,
// unflushed or not, and overwrites none of it.
func TestAppendLandsPastEarlierWrites(t *testing.T) {
	for _, other := range []bool{false, true} {
		c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
		cls := newClients(t, c, 2)
		fw, err := cls[0].Create("/a", 1<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		fa := fw
		if other {
			if fa, err = cls[1].Open("/a"); err != nil {
				t.Fatal(err)
			}
		}
		data, rec := pattern(1, 100), pattern(2, 10)
		if _, err := fw.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		off, err := fa.Append(rec)
		if err != nil || off != 100 {
			t.Fatalf("other client %v: append at %d (%v), want 100", other, off, err)
		}
		got := make([]byte, 111)
		if n, err := fw.ReadAt(got, 0); n != 110 || err != io.EOF {
			t.Fatalf("other client %v: read %d bytes (%v), want 110, io.EOF", other, n, err)
		}
		if !bytes.Equal(got[:110], append(bytes.Clone(data), rec...)) {
			t.Fatalf("other client %v: the append overwrote the write", other)
		}
	}
}
