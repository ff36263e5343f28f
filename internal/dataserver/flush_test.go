package dataserver

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// TestFlushOverlapOrder: two handlers flush overlapping ranges at the
// same moment with SNs a < b. Whichever order the extent cache sees
// them in, the store must end with b's bytes wherever b wrote: merging
// into the cache and submitting to the store are one step per stripe,
// so a's surviving bytes can never land after b's. Run with -race.
func TestFlushOverlapOrder(t *testing.T) {
	for name, hw := range map[string]sim.Hardware{
		"memstore": sim.Fast(),
		"device":   {DiskLatency: time.Microsecond, DiskBandwidth: 10e9},
	} {
		t.Run(name, func(t *testing.T) {
			srv := New(Config{Policy: dlm.SeqDLM(), Hardware: hw})
			defer srv.Close()
			const rounds, n = 1000, 4096
			older, newer := bytes.Repeat([]byte{0xA}, 2*n), bytes.Repeat([]byte{0xB}, 2*n)
			got := make([]byte, 3*n)
			for r := 0; r < rounds; r++ {
				stripe := uint64(r + 1)
				reqs := []*wire.FlushRequest{
					{Resource: stripe, Blocks: []wire.Block{{Range: extent.Span(0, 2*n), SN: 1, Data: older}}},
					{Resource: stripe, Blocks: []wire.Block{{Range: extent.Span(n, 2*n), SN: 2, Data: newer}}},
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for _, req := range reqs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						if err := srv.Flush(req); err != nil {
							t.Error(err)
						}
					}()
				}
				close(start)
				wg.Wait()
				if err := srv.store.ReadAt(stripe, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[:n], older[:n]) || !bytes.Equal(got[n:], newer) {
					t.Fatalf("round %d: store holds %x|%x|%x, want a|b|b", r, got[0], got[n], got[2*n])
				}
				if f, d := srv.FlushedBytes.Load(), srv.DiscardedBytes.Load(); f+d != int64(r+1)*4*n {
					t.Fatalf("round %d: flushed %d + discarded %d != %d submitted", r, f, d, (r+1)*4*n)
				}
			}
		})
	}
}

// TestStorageMetrics: the device's counters are in the server's
// registry, and move as flushes merge.
// TestTruncateCutsOlderFlushes: a cut drops the stored bytes past it,
// and a flush older than the cut's SN — one still in flight from a lock
// released before the truncate — writes only below the cut, while a
// flush at the cut's SN (the truncating lock's own) or newer writes
// past it.
func TestTruncateCutsOlderFlushes(t *testing.T) {
	srv := New(Config{Policy: dlm.SeqDLM()})
	defer srv.Close()
	const stripe, n, cut = 1, 4096, 1000
	flush := func(sn uint64, b byte) {
		t.Helper()
		req := &wire.FlushRequest{Resource: stripe, Blocks: []wire.Block{{Range: extent.Span(0, n), SN: sn, Data: bytes.Repeat([]byte{b}, n)}}}
		if err := srv.Flush(req); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []byte {
		t.Helper()
		got := make([]byte, n)
		if err := srv.store.ReadAt(stripe, 0, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	flush(3, 0xA)
	if err := srv.Truncate(&wire.TruncateRequest{Resource: stripe, Size: cut, SN: 5}); err != nil {
		t.Fatal(err)
	}
	if got := read(); !bytes.Equal(got[:cut], bytes.Repeat([]byte{0xA}, cut)) || !bytes.Equal(got[cut:], make([]byte, n-cut)) {
		t.Fatalf("after the cut the stripe holds %x…%x, want a below %d and zeros past it", got[0], got[cut], cut)
	}
	flush(4, 0xB)
	if got := read(); !bytes.Equal(got[:cut], bytes.Repeat([]byte{0xB}, cut)) || !bytes.Equal(got[cut:], make([]byte, n-cut)) {
		t.Fatalf("an older flush left %x…%x, want b below %d and zeros past it", got[0], got[cut], cut)
	}
	flush(5, 0xC)
	if got := read(); !bytes.Equal(got, bytes.Repeat([]byte{0xC}, n)) {
		t.Fatalf("a flush at the cut's SN left %x…%x, want c throughout", got[0], got[cut])
	}
	if err := srv.Truncate(&wire.TruncateRequest{Resource: stripe, Size: -1, SN: 6}); err == nil {
		t.Fatal("negative truncate size accepted")
	}
}

// TestOlderFlushDoesNotRaiseEnd: a stripe's end, as its read replies
// carry it, follows the extent cache's merge rule: a flush raises it,
// a cut sets it at the cut's SN, a flush older than the cut does not
// raise it past the cut (a write lost to a truncate stays lost), and a
// flush at or past the cut's SN does. An empty read asks for the end
// alone, and a read of bytes carries the same end and the bytes below
// it only.
func TestOlderFlushDoesNotRaiseEnd(t *testing.T) {
	srv := New(Config{Policy: dlm.SeqDLM()})
	defer srv.Close()
	const stripe = 1
	flush := func(sn uint64, end int64) {
		t.Helper()
		req := &wire.FlushRequest{Resource: stripe, Blocks: []wire.Block{{Range: extent.New(0, end), SN: sn, Data: make([]byte, end)}}}
		if err := srv.Flush(req); err != nil {
			t.Fatal(err)
		}
	}
	end := func() int64 {
		t.Helper()
		m, err := srv.handleRead(&wire.ReadRequest{Resource: stripe})
		if err != nil {
			t.Fatal(err)
		}
		alone := m.(*wire.ReadReply).End
		m, err = srv.handleRead(&wire.ReadRequest{Resource: stripe, Range: extent.New(0, 10)})
		if err != nil {
			t.Fatal(err)
		}
		var rep wire.ReadReply
		if err := wire.Unmarshal(wire.Marshal(m), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.End != alone {
			t.Fatalf("a read of bytes carries end %d, an empty read %d", rep.End, alone)
		}
		var held int64
		for _, b := range rep.Blocks {
			held += b.Range.Len()
		}
		if held != min(10, alone) {
			t.Fatalf("a read of [0, 10) with the end at %d holds %d bytes", alone, held)
		}
		return alone
	}
	for i, step := range []struct {
		sn       uint64
		cut, end int64 // cut < 0: a flush of [0, end)
		want     int64
	}{
		{3, -1, 8192, 8192},
		{5, 1000, 0, 1000},
		{4, -1, 8192, 1000},
		{5, -1, 4096, 4096},
		{6, 20000, 0, 20000},
		{7, -1, 8192, 20000},
		{8, 0, 0, 0},
	} {
		if step.cut >= 0 {
			if err := srv.Truncate(&wire.TruncateRequest{Resource: stripe, Size: step.cut, SN: step.sn}); err != nil {
				t.Fatal(err)
			}
		} else {
			flush(step.sn, step.end)
		}
		if got := end(); got != step.want {
			t.Fatalf("step %d (%+v): end %d, want %d", i, step, got, step.want)
		}
	}
}

func TestStorageMetrics(t *testing.T) {
	srv := New(Config{Policy: dlm.SeqDLM(), Hardware: sim.Hardware{DiskLatency: time.Microsecond, DiskBandwidth: 10e9}})
	defer srv.Close()
	const n = 4096
	req := &wire.FlushRequest{Resource: 1}
	for _, off := range []int64{0, n, 2 * n, 3 * n, 8 * n} { // four neighbours and one apart
		req.Blocks = append(req.Blocks, wire.Block{Range: extent.Span(off, n), SN: 1, Data: make([]byte, n)})
	}
	if err := srv.Flush(req); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.handleRead(&wire.ReadRequest{Resource: 1, Range: extent.Span(0, n)}); err != nil {
		t.Fatal(err)
	}
	snap := srv.Obs().Snapshot()
	for name, want := range map[string]int64{
		"storage.write_requests": 5, "storage.write_ops": 2,
		"storage.read_requests": 1, "storage.read_ops": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Counters["storage.busy_ns"] < 3*int64(time.Microsecond) {
		t.Errorf("storage.busy_ns = %d, want three operations' worth", snap.Counters["storage.busy_ns"])
	}
	if got := snap.Hist("storage.queue_depth").Count; got != 3 {
		t.Errorf("storage.queue_depth sampled %d times, want 3", got)
	}

	// Without a simulated device the names are still served, at zero.
	plain := New(Config{Policy: dlm.SeqDLM()})
	defer plain.Close()
	if _, ok := plain.Obs().Snapshot().Counters["storage.write_ops"]; !ok {
		t.Error("storage.write_ops not registered on a server without a simulated device")
	}
}
