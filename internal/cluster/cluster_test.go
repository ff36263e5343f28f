package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/pagecache"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
)

func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Hardware == (sim.Hardware{}) {
		opts.Hardware = sim.Fast()
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func newClients(t *testing.T, c *Cluster, n int) []*client.Client {
	t.Helper()
	cls, err := c.Clients(n, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, cl := range cls {
			cl.Close()
		}
	})
	return cls
}

// pattern produces deterministic content distinguishable by seed.
func pattern(seed byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed ^ byte(i*7)
	}
	return out
}

func TestWriteReadSingleClient(t *testing.T) {
	for _, pol := range []dlm.Policy{dlm.SeqDLM(), dlm.Basic(), dlm.Lustre()} {
		t.Run(pol.Name, func(t *testing.T) {
			c := newCluster(t, Options{Servers: 2, Policy: pol})
			cl := newClients(t, c, 1)[0]
			f, err := cl.Create("/f", 64<<10, 2)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(1, 200_000) // spans both stripes
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read back mismatch (same client, cached)")
			}
			if sz, _ := f.Size(); sz != 0 {
				// Size is published at flush time; before any flush the
				// register may still be zero — that's the documented
				// client-cache visibility rule. Force it now.
				if err := f.Fsync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
			if sz, _ := f.Size(); sz != int64(len(data)) {
				t.Fatalf("size = %d, want %d", sz, len(data))
			}
		})
	}
}

func TestCoherenceAcrossClients(t *testing.T) {
	for _, pol := range []dlm.Policy{dlm.SeqDLM(), dlm.Basic()} {
		t.Run(pol.Name, func(t *testing.T) {
			c := newCluster(t, Options{Servers: 2, Policy: pol})
			cls := newClients(t, c, 2)
			a, b := cls[0], cls[1]
			fa, err := a.Create("/shared", 64<<10, 1)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(9, 100_000)
			if _, err := fa.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			// No fsync: B's read lock must force A's flush (coherence via
			// the DLM, the whole point of the system).
			fb, err := b.Open("/shared")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			n, err := fb.ReadAt(got, 0)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if n != len(data) || !bytes.Equal(got[:n], data) {
				t.Fatalf("cross-client read: n=%d, mismatch=%v", n, !bytes.Equal(got[:n], data[:n]))
			}
		})
	}
}

// TestDataSafetyOverlap is the paper's §V-B1 overlapping-writes check
// (Fig. 7 workload): every client performs two full-range writes with
// distinct contents; after a barrier, every client reads the range back.
// All reads must agree, and the winning content must be some client's
// SECOND write — the traditional lock semantics SeqDLM promises to keep.
func TestDataSafetyOverlap(t *testing.T) {
	cases := []struct {
		name    string
		stripes uint32
	}{
		{"1stripe_NBW", 1},
		{"2stripes_BW_conversion", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const nclients = 8
			const size = 128 << 10
			c := newCluster(t, Options{Servers: int(tc.stripes), Policy: dlm.SeqDLM()})
			cls := newClients(t, c, nclients)
			f0, err := cls[0].Create("/overlap", 64<<10, tc.stripes)
			if err != nil {
				t.Fatal(err)
			}
			_ = f0
			var wg sync.WaitGroup
			for i, cl := range cls {
				wg.Add(1)
				go func(i int, cl *client.Client) {
					defer wg.Done()
					f, err := cl.Open("/overlap")
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					for w := 0; w < 2; w++ {
						// Seed encodes (client, write index); second writes
						// have odd seeds.
						seed := byte(i*2 + w + 1)
						if _, err := f.WriteAt(pattern(seed, size), 0); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}(i, cl)
			}
			wg.Wait() // the MPI_Barrier of the paper's test

			var first []byte
			for i, cl := range cls {
				f, err := cl.Open("/overlap")
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, size)
				n, err := f.ReadAt(got, 0)
				if err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if n != size {
					t.Fatalf("client %d read %d bytes, want %d", i, n, size)
				}
				if first == nil {
					first = got
					continue
				}
				if !bytes.Equal(first, got) {
					t.Fatalf("client %d read different content than client 0", i)
				}
			}
			// The winner must be some client's second write (seed odd →
			// seeds 2,4,...  are w=1: seed = i*2+w+1 → w=1 gives even?).
			// seed = i*2 + w + 1: w=1 → i*2+2, always even; w=0 → odd.
			matched := false
			for i := 0; i < nclients; i++ {
				if bytes.Equal(first, pattern(byte(i*2+2), size)) {
					matched = true
					break
				}
			}
			if !matched {
				// Diagnose: was it a first write?
				for i := 0; i < nclients; i++ {
					if bytes.Equal(first, pattern(byte(i*2+1), size)) {
						t.Fatalf("final content is client %d's FIRST write — ordering broken", i)
					}
				}
				t.Fatal("final content matches no client's write — data corrupted")
			}
		})
	}
}

// TestIORHardReadback is the paper's §V-B1 first data-safety check: the
// IO500 IOR-hard pattern (N-1 strided, 47,008-byte unaligned writes)
// written concurrently and read back from different clients.
func TestIORHardReadback(t *testing.T) {
	const writeSize = 47008
	const nclients = 4
	const perClient = 8
	for _, stripes := range []uint32{1, 2, 4} {
		t.Run(fmt.Sprintf("%dstripes", stripes), func(t *testing.T) {
			c := newCluster(t, Options{Servers: 2, Policy: dlm.SeqDLM()})
			cls := newClients(t, c, nclients)
			if _, err := cls[0].Create("/ior", 1<<20, stripes); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i, cl := range cls {
				wg.Add(1)
				go func(i int, cl *client.Client) {
					defer wg.Done()
					f, err := cl.Open("/ior")
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					for k := 0; k < perClient; k++ {
						// N-1 strided: iteration k, rank i.
						off := int64(k*nclients+i) * writeSize
						if _, err := f.WriteAt(pattern(byte(i+1), writeSize), off); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}(i, cl)
			}
			wg.Wait()

			// Read back from a different client than wrote each block.
			for k := 0; k < perClient; k++ {
				for i := 0; i < nclients; i++ {
					reader := cls[(i+1)%nclients]
					f, err := reader.Open("/ior")
					if err != nil {
						t.Fatal(err)
					}
					off := int64(k*nclients+i) * writeSize
					got := make([]byte, writeSize)
					if _, err := f.ReadAt(got, off); err != nil && err != io.EOF {
						t.Fatal(err)
					}
					if !bytes.Equal(got, pattern(byte(i+1), writeSize)) {
						t.Fatalf("stripes=%d block (k=%d rank=%d) corrupted", stripes, k, i)
					}
				}
			}
		})
	}
}

func TestMultiStripeSpanningWrite(t *testing.T) {
	c := newCluster(t, Options{Servers: 4, Policy: dlm.SeqDLM()})
	cl := newClients(t, c, 1)[0]
	f, err := cl.Create("/span", 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	// One write spanning all four stripes twice over.
	data := pattern(3, 4096*9)
	if _, err := f.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 100); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("spanning write round trip failed")
	}
}

func TestConcurrentAppends(t *testing.T) {
	c := newCluster(t, Options{Servers: 2, Policy: dlm.SeqDLM()})
	const nclients = 4
	const appends = 10
	const chunk = 5000
	cls := newClients(t, c, nclients)
	if _, err := cls[0].Create("/log", 64<<10, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			f, err := cl.Open("/log")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for k := 0; k < appends; k++ {
				if _, err := f.Append(pattern(byte(i+1), chunk)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	f, err := cls[0].Open("/log")
	if err != nil {
		t.Fatal(err)
	}
	f.Fsync()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != nclients*appends*chunk {
		t.Fatalf("size = %d, want %d (appends lost or overlapped)", size, nclients*appends*chunk)
	}
	// Every chunk boundary must contain exactly one client's pattern.
	buf := make([]byte, chunk)
	for off := int64(0); off < size; off += chunk {
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		ok := false
		for i := 0; i < nclients; i++ {
			if bytes.Equal(buf, pattern(byte(i+1), chunk)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("chunk at %d is interleaved garbage — append not atomic", off)
		}
	}
}

func TestTruncate(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
	cl := newClients(t, c, 1)[0]
	f, err := cl.Create("/t", 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(pattern(1, 10000), 0)
	if err := f.Truncate(5000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10000)
	n, err := f.ReadAt(buf, 0)
	if n != 5000 || err != io.EOF {
		t.Fatalf("post-truncate read n=%d err=%v, want 5000, EOF", n, err)
	}
	if _, err := f.ReadAt(buf, 5000); err != io.EOF {
		t.Fatalf("read at truncated offset: err=%v, want EOF", err)
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

// TestTruncateNotUndoneByReader: a client that only read a file gives
// up its read lock when another client writes after a truncate, and its
// cancel must not publish the size it read before the truncate — the
// size register keeps the larger of two sizes, so that would undo the
// truncate.
func TestTruncateNotUndoneByReader(t *testing.T) {
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
	if _, err := fb.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := fa.Truncate(0); err != nil {
		t.Fatal(err)
	}
	// The reader takes its read lock back; what it returns here is not
	// checked (its cached size predates the truncate).
	fb.ReadAt(buf, 0)
	if _, err := fa.WriteAt(pattern(2, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := fa.Fsync(); err != nil {
		t.Fatal(err)
	}
	if n, err := fa.Size(); err != nil || n != 100 {
		t.Fatalf("size after truncate and a 100-byte write = %d (%v), want 100", n, err)
	}
}

// TestTruncateDropsCutBytes: bytes a truncate cut off read as zeros
// after a later write past the cut makes them part of the file again,
// from the writer and from another client, on one stripe and across
// several stripes on two servers (POSIX: the extended range reads as
// zeros). Before the fix, the data servers kept the cut bytes and the
// write exposed them.
func TestTruncateDropsCutBytes(t *testing.T) {
	for _, tc := range []struct {
		servers     int
		stripeSize  int64
		stripeCount uint32
		cut         int64
	}{
		{1, 1 << 20, 1, 0},
		{1, 1 << 20, 1, 2500},
		{2, 4096, 3, 0},
		{2, 4096, 3, 5000},
	} {
		name := fmt.Sprintf("%dx%d/cut%d", tc.stripeCount, tc.stripeSize, tc.cut)
		c := newCluster(t, Options{Servers: tc.servers, Policy: dlm.SeqDLM()})
		cls := newClients(t, c, 2)
		fw, err := cls[0].Create("/t", tc.stripeSize, tc.stripeCount)
		if err != nil {
			t.Fatal(err)
		}
		old := pattern(1, 10000)
		if _, err := fw.WriteAt(old, 0); err != nil {
			t.Fatal(err)
		}
		if err := fw.Fsync(); err != nil {
			t.Fatal(err)
		}
		if err := fw.Truncate(tc.cut); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.WriteAt([]byte{0xEE}, 9999); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 10000)
		copy(want, old[:tc.cut])
		want[9999] = 0xEE
		fr, err := cls[1].Open("/t")
		if err != nil {
			t.Fatal(err)
		}
		for who, f := range map[string]*client.File{"writer": fw, "reader": fr} {
			got := make([]byte, len(want))
			if n, err := f.ReadAt(got, 0); n != len(want) || (err != nil && err != io.EOF) {
				t.Fatalf("%s: %s read %d of %d bytes (%v)", name, who, n, len(want), err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: %s reads %#x at %d, want %#x", name, who, got[i], i, want[i])
				}
			}
		}
	}
}

// TestConcurrentCancelsPublishSize has two readers, one per stripe,
// displace both of a writer's stripe locks at once, every round, and
// checks every read against the written length and bytes. Each cancel
// must publish the end of the writer's writes before its lock is
// released, also while the other stripe's cancel is pushing the same
// end: a reader granted its lock while the end is still on the wire
// reads the old size and returns a short read. The writer's metadata
// link is slow so that the two pushes overlap.
func TestConcurrentCancelsPublishSize(t *testing.T) {
	const (
		stripe = 64 << 10
		rounds = 20
	)
	c := newCluster(t, Options{Servers: 2, Policy: dlm.SeqDLM()})
	w := newSlowMetaClient(t, c, 2*time.Millisecond)
	fw, err := w.Create("/f", stripe, 2)
	if err != nil {
		t.Fatal(err)
	}
	var readers [2]*client.File
	for i, cl := range newClients(t, c, len(readers)) {
		if readers[i], err = cl.Open("/f"); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		// One write covers one chunk of each stripe and extends the file.
		base := int64(r) * 2 * stripe
		data := pattern(byte(r), 2*stripe)
		if _, err := fw.WriteAt(data, base); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(readers))
		for i, f := range readers {
			wg.Add(1)
			go func(i int, f *client.File) {
				defer wg.Done()
				buf := make([]byte, stripe)
				off := base + int64(i)*stripe
				n, err := f.ReadAt(buf, off)
				switch {
				case n != stripe:
					errs[i] = fmt.Errorf("reader %d read %d of %d bytes at %d (%v)", i, n, stripe, off, err)
				case !bytes.Equal(buf, data[i*stripe:(i+1)*stripe]):
					errs[i] = fmt.Errorf("reader %d read stale bytes at %d", i, off)
				}
			}(i, f)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
}

// newSlowMetaClient is a client whose metadata calls go over a
// connection of their own that holds each message for delay before
// sending it. Its lock and data traffic goes as NewClient's does.
func newSlowMetaClient(t *testing.T, c *Cluster, delay time.Duration) *client.Client {
	t.Helper()
	dial := func(i int) *rpc.Endpoint {
		conn, err := c.net.Dial(fmt.Sprintf("server-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		return rpc.NewEndpoint(conn, rpc.Options{})
	}
	var conns client.Conns
	for i := range c.Servers {
		conns.Data = append(conns.Data, dial(i))
		conns.Bulk = append(conns.Bulk, dial(i))
	}
	conn, err := c.net.Dial("server-0")
	if err != nil {
		t.Fatal(err)
	}
	conns.Meta = rpc.NewEndpoint(slowConn{conn, delay}, rpc.Options{})
	cl, err := client.New(context.Background(), client.Config{
		Name:   "slow-meta",
		ID:     dlm.ClientID(c.nextClient.Add(1)),
		Policy: c.opts.Policy,
	}, conns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// slowConn holds each outgoing message for delay before sending it.
type slowConn struct {
	transport.Conn
	delay time.Duration
}

func (s slowConn) Send(ctx context.Context, msg []byte) error {
	time.Sleep(s.delay)
	return s.Conn.Send(ctx, msg)
}

func TestReadAtEOFSemantics(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
	cl := newClients(t, c, 1)[0]
	f, _ := cl.Create("/e", 64<<10, 1)
	f.WriteAt(pattern(1, 100), 0)
	f.Fsync()
	buf := make([]byte, 200)
	n, err := f.ReadAt(buf, 0)
	if n != 100 || err != io.EOF {
		t.Fatalf("short read: n=%d err=%v", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read at EOF: %v", err)
	}
	if n, err := f.ReadAt(nil, 0); n != 0 || err != nil {
		t.Fatalf("empty read: n=%d err=%v", n, err)
	}
}

func TestVoluntaryFlushDaemon(t *testing.T) {
	c := newCluster(t, Options{
		Servers:       1,
		Policy:        dlm.SeqDLM(),
		PageCache:     pagecache.Config{MinDirty: 1024},
		FlushInterval: 5 * time.Millisecond,
	})
	cl := newClients(t, c, 1)[0]
	f, _ := cl.Create("/d", 64<<10, 1)
	f.WriteAt(pattern(1, 50_000), 0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.FlushedBytes() < 50_000 {
		time.Sleep(5 * time.Millisecond)
	}
	if c.FlushedBytes() < 50_000 {
		t.Fatalf("daemon flushed %d bytes, want 50000", c.FlushedBytes())
	}
	// The lock must still be cached (voluntary flush releases nothing).
	if cl.Locks().CachedLocks(f.Resource(0)) == 0 {
		t.Fatal("voluntary flush dropped the lock")
	}
}

func TestDatatypeWriteMulti(t *testing.T) {
	c := newCluster(t, Options{Servers: 2, Policy: dlm.Datatype()})
	cls := newClients(t, c, 2)
	if _, err := cls[0].Create("/dt", 64<<10, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			f, err := cl.Open("/dt")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			var ops []client.WriteOp
			for k := 0; k < 10; k++ {
				off := int64(k*2+i) * 1000
				ops = append(ops, client.WriteOp{Off: off, Data: pattern(byte(i+1), 1000)})
			}
			if err := f.WriteMulti(ops); err != nil {
				t.Errorf("WriteMulti: %v", err)
			}
		}(i, cl)
	}
	wg.Wait()
	f, _ := cls[0].Open("/dt")
	buf := make([]byte, 1000)
	for k := 0; k < 10; k++ {
		for i := 0; i < 2; i++ {
			off := int64(k*2+i) * 1000
			if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, pattern(byte(i+1), 1000)) {
				t.Fatalf("datatype block (k=%d, i=%d) corrupted", k, i)
			}
		}
	}
}

func TestWriteMultiSeqDLM(t *testing.T) {
	c := newCluster(t, Options{Servers: 2, Policy: dlm.SeqDLM()})
	cl := newClients(t, c, 1)[0]
	f, _ := cl.Create("/wm", 4096, 2)
	ops := []client.WriteOp{
		{Off: 0, Data: pattern(1, 1000)},
		{Off: 5000, Data: pattern(2, 1000)},
		{Off: 9000, Data: pattern(3, 1000)},
	}
	if err := f.WriteMulti(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		buf := make([]byte, len(op.Data))
		if _, err := f.ReadAt(buf, op.Off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, op.Data) {
			t.Fatalf("piece at %d corrupted", op.Off)
		}
	}
}

func TestOpenMissingAndRemove(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
	cl := newClients(t, c, 1)[0]
	if _, err := cl.Open("/missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if _, err := cl.Create("/x", 4096, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create("/x", 4096, 1); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if f, err := cl.OpenOrCreate("/x", 4096, 1); err != nil || f == nil {
		t.Fatalf("OpenOrCreate existing: %v", err)
	}
	if f, err := cl.OpenOrCreate("/y", 4096, 1); err != nil || f == nil {
		t.Fatalf("OpenOrCreate new: %v", err)
	}
	if err := cl.Remove("/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("/x"); err == nil {
		t.Fatal("open after remove succeeded")
	}
}

func TestExtentCacheDrainsAfterRelease(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
	cls := newClients(t, c, 2)
	f0, _ := cls[0].Create("/cc", 64<<10, 1)
	f1, err := cls[1].Open("/cc")
	if err != nil {
		t.Fatal(err)
	}
	// Conflicting writes populate the extent cache.
	for k := 0; k < 5; k++ {
		f0.WriteAt(pattern(1, 5000), int64(k*10000))
		f1.WriteAt(pattern(2, 5000), int64(k*10000+5000))
	}
	cls[0].Locks().ReleaseAll(context.Background())
	cls[1].Locks().ReleaseAll(context.Background())
	if c.ExtCacheEntries() == 0 {
		t.Fatal("extent cache empty after conflicting flushes (nothing recorded?)")
	}
	// With all locks released, cleanup sweeps backed by the real DLM
	// mSN query can drop every entry.
	srv := c.Servers[0]
	minSN := func(stripe uint64, rng extent.Extent) (extent.SN, bool) {
		return srv.DLM.MinSN(dlm.ResourceID(stripe), rng)
	}
	for i := 0; i < 20 && srv.Cache.Entries() > 0; i++ {
		srv.Cache.CleanupRound(minSN)
	}
	if got := srv.Cache.Entries(); got != 0 {
		t.Fatalf("%d extent cache entries survived cleanup with no locks held", got)
	}
}

func TestClientIDsUnique(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
	a, err := c.NewClient("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := c.NewClient("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Locks().ID() == b.Locks().ID() {
		t.Fatal("cluster assigned duplicate client IDs")
	}
}

// TestVirtualOneClientConcurrentWriters: two coroutines of one client
// write different 4 KiB ranges of one stripe on the virtual clock. While
// the first one's lock RPC is parked, the second one's acquire of the
// same resource waits for it; that wait has to park on the clock too. A
// wait on a real mutex instead blocks the goroutine driving the clock,
// and the run hangs with no stall report, so a wall-clock watchdog
// turns a hang into a failure.
func TestVirtualOneClientConcurrentWriters(t *testing.T) {
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	done := make(chan error, 1)
	go func() {
		var err error
		v.Run(func() { err = oneClientTwoWriters(hw) })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the virtual run hung: an acquire waiting on another acquire of the same resource blocked the clock")
	}
}

// oneClientTwoWriters runs TestVirtualOneClientConcurrentWriters'
// workload and checks the bytes read back.
func oneClientTwoWriters(hw sim.Hardware) error {
	c, err := New(Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw})
	if err != nil {
		return err
	}
	defer c.Close()
	cl, err := c.NewClient("writer")
	if err != nil {
		return err
	}
	defer cl.Close()
	f, err := cl.Create("/two-writers", 1<<20, 1)
	if err != nil {
		return err
	}
	const size = 4 << 10
	errs := make([]error, 2)
	grp := sim.NewGroup(c.Clock())
	for i := range errs {
		grp.Go(func() {
			for k := 0; k < 4; k++ {
				if _, err := f.WriteAt(pattern(byte(i+k+1), size), int64(i)*size); err != nil {
					errs[i] = err
					return
				}
			}
		})
	}
	grp.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("writer %d: %w", i, err)
		}
		got := make([]byte, size)
		if _, err := f.ReadAt(got, int64(i)*size); err != nil && err != io.EOF {
			return err
		}
		if !bytes.Equal(got, pattern(byte(i+4), size)) {
			return fmt.Errorf("writer %d: its last write does not read back", i)
		}
	}
	return nil
}

// TestVirtualCloseAfterRun closes a cluster on simulated hardware after
// its virtual run has ended. Teardown sends frames whose delivery time
// is Now + RTT/2; were Now stuck at the run's last instant, that time
// would never come and Close would hang.
func TestVirtualCloseAfterRun(t *testing.T) {
	v := sim.NewVClock(1)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	var c *Cluster
	var cls []*client.Client
	var err error
	v.Run(func() {
		if c, err = New(Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw}); err != nil {
			return
		}
		if cls, err = c.Clients(2, "client"); err != nil {
			return
		}
		var f *client.File
		if f, err = cls[0].Create("/close", 1<<20, 1); err != nil {
			return
		}
		_, err = f.WriteAt(pattern(1, 4096), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		for _, cl := range cls {
			cl.Close()
		}
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("closing the cluster after its virtual run ended took over 1 s")
	}
}

// TestVirtualCloseWithHeldLock closes a client while a caller holds one
// of its lock handles. Close must not wait for that handle's Unlock: it
// returns, the later Unlock returns too (its cancel fails fast on the
// closed connections), and the server releases the lock as a dead
// holder's when another client's conflicting request revokes it.
func TestVirtualCloseWithHeldLock(t *testing.T) {
	v := sim.NewVClock(1)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	clk := hw.Clock
	var err error
	v.Run(func() {
		var c *Cluster
		if c, err = New(Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw}); err != nil {
			return
		}
		defer c.Close()
		var cls []*client.Client
		if cls, err = c.Clients(2, "client"); err != nil {
			return
		}
		defer cls[1].Close()
		ctx := context.Background()
		res, rng := dlm.ResourceID(1), extent.New(0, 4096)
		lc := cls[0].Locks()
		var h *dlm.Handle
		if h, err = lc.Acquire(ctx, res, dlm.PW, rng); err != nil {
			return
		}
		// within runs f on its own goroutine and reports whether it
		// returned within a second of virtual time.
		within := func(f func()) bool {
			done := new(bool)
			clk.Go(func() {
				f()
				*done = true
				v.Wakeup(done)
			})
			v.WaitOnUntil(done, clk.Now().Add(time.Second))
			return *done
		}
		if !within(cls[0].Close) {
			err = fmt.Errorf("Close with a handle held did not return within 1s")
			return
		}
		if !within(func() { lc.Unlock(h) }) {
			err = fmt.Errorf("Unlock after Close did not return within 1s")
			return
		}
		var h2 *dlm.Handle
		if !within(func() { h2, err = cls[1].Locks().Acquire(ctx, res, dlm.PW, rng) }) {
			err = fmt.Errorf("a conflicting acquire after the holder closed was not granted within 1s")
			return
		}
		if err == nil {
			cls[1].Locks().Unlock(h2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExtCacheDaemonBoundsEntries keeps the server extent cache under
// its entry budget while early-granted conflicting writes hammer it:
// the cleanup task (and, if entries are pinned, forced synchronization)
// must hold the line — the §IV-B size-control mechanism end to end.
func TestExtCacheDaemonBoundsEntries(t *testing.T) {
	// Seeded on the virtual clock: on the wall clock a loaded host could
	// let a forced sync (the write path's over-budget fallback) empty
	// the cache before the cleanup task ever ran, leaving nothing for
	// the daemon to have cleaned.
	v := sim.NewVClock(1)
	hw := sim.Fast()
	hw.Clock = sim.Virtual(v)
	v.Run(func() {
		c := newCluster(t, Options{
			Servers:           1,
			Policy:            dlm.SeqDLM(),
			ExtCacheThreshold: 64,
			CleanupInterval:   2 * time.Millisecond,
			Hardware:          hw,
		})
		cls := newClients(t, c, 4)
		if _, err := cls[0].Create("/bound", 1<<20, 1); err != nil {
			t.Fatal(err)
		}
		// Non-contiguous conflicting writes create many distinct extents.
		grp := sim.NewGroup(c.Clock())
		for i, cl := range cls {
			grp.Go(func() {
				f, err := cl.Open("/bound")
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				for k := 0; k < 60; k++ {
					off := int64(k*len(cls)+i) * 9000
					if _, err := f.WriteAt(pattern(byte(i+1), 5000), off); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			})
		}
		grp.Wait()
		for _, cl := range cls {
			cl.Locks().ReleaseAll(context.Background())
		}
		// With all locks released, the daemon must get the cache under
		// budget.
		srv := c.Servers[0]
		for i := 0; srv.Cache.Entries() > 64; i++ {
			if i == 1000 {
				t.Fatalf("extent cache still over budget after %d virtual ms: %d entries", 2*i, srv.Cache.Entries())
			}
			c.Clock().Sleep(2 * time.Millisecond)
		}
		ins, cleaned, _ := srv.Cache.Stats()
		if ins == 0 || cleaned == 0 {
			t.Fatalf("daemon idle: inserts=%d cleaned=%d", ins, cleaned)
		}
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestAbruptClientDeath: a client dies holding cached write locks with
// unflushed data. Its dirty cache is lost (the §IV-C1 convention), but
// the system must keep serving: conflicting requests get force-released
// grants and other clients' data stays intact.
func TestAbruptClientDeath(t *testing.T) {
	c := newCluster(t, Options{Servers: 1, Policy: dlm.SeqDLM()})
	survivorList := newClients(t, c, 1)
	survivor := survivorList[0]

	doomed, err := c.NewClient("doomed")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := survivor.Create("/abrupt", 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(pattern(1, 20_000), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync(); err != nil {
		t.Fatal(err)
	}
	survivor.Locks().ReleaseAll(context.Background())

	fd, err := doomed.Open("/abrupt")
	if err != nil {
		t.Fatal(err)
	}
	// Doomed writes over part of the survivor's data but never flushes.
	if _, err := fd.WriteAt(pattern(9, 10_000), 5_000); err != nil {
		t.Fatal(err)
	}
	// Kill the connections without flushing or releasing.
	doomed.Kill()

	// The survivor can still lock and read the file; the doomed client's
	// unflushed overwrite is gone, the original data intact.
	got := make([]byte, 20_000)
	if _, err := fs.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(1, 20_000)) {
		t.Fatal("survivor data corrupted by dead client")
	}
	// And new writes proceed (the dead client's locks were force-released).
	if _, err := fs.WriteAt(pattern(3, 1_000), 0); err != nil {
		t.Fatal(err)
	}
}
