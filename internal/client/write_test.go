package client

import (
	"bytes"
	"context"
	"io"
	"slices"
	"testing"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// lockLog is a lock server connection that records every lock request
// before it sends it on.
type lockLog struct {
	dlm.ServerConn
	reqs *[]dlm.Request
}

func (l lockLog) Lock(ctx context.Context, req dlm.Request) (dlm.Grant, error) {
	*l.reqs = append(*l.reqs, req)
	return l.ServerConn.Lock(ctx, req)
}

// recordLocks gives cl a fresh lock client whose requests are recorded
// in the returned log. Call it before cl takes any lock.
func recordLocks(cl *Client) *[]dlm.Request {
	reqs := new([]dlm.Request)
	cl.lc = dlm.NewLockClient(cl.cfg.ID, cl.cfg.Policy, func(res dlm.ResourceID) dlm.ServerConn {
		return lockLog{cl.route(res), reqs}
	}, (*dataPath)(cl))
	cl.lc.SetClock(cl.clk)
	return reqs
}

// lockReq is what a lock request asks for.
type lockReq struct {
	res     dlm.ResourceID
	mode    dlm.Mode
	rng     extent.Extent
	extents string
}

func asked(reqs []dlm.Request) []lockReq {
	out := make([]lockReq, len(reqs))
	for i, r := range reqs {
		out[i] = lockReq{r.Resource, r.Mode, r.Range, extentsString(r.Extents)}
	}
	return out
}

func extentsString(s extent.Set) string {
	var b bytes.Buffer
	for _, e := range s {
		b.WriteString(e.String())
	}
	return b.String()
}

// TestWriteMultiOfOneIsWriteAt: on the virtual clock, under SeqDLM and
// DLM-datatype, a WriteMulti of one op asks for the same locks as the
// WriteAt of its bytes and leaves the same bytes in the page cache.
func TestWriteMultiOfOneIsWriteAt(t *testing.T) {
	const stripeSize, stripes = 4096, 3
	writes := []WriteOp{
		{Off: 5, Data: bytes.Repeat([]byte{1}, 10)},
		{Off: 4000, Data: bytes.Repeat([]byte{2}, 9000)},                     // three stripes
		{Off: 3*stripeSize + 7, Data: bytes.Repeat([]byte{3}, 5*stripeSize)}, // stripe 1 twice
		{Off: 100, Data: bytes.Repeat([]byte{4}, 50)},
	}
	run := func(pol dlm.Policy, multi bool) ([]lockReq, [][]byte) {
		v := sim.NewVClock(1)
		hw := sim.Fast()
		hw.Clock = sim.Virtual(v)
		var reqs []lockReq
		var cached [][]byte
		v.Run(func() {
			h := newHarnessOn(t, pol, 2, hw)
			cl := h.client(Config{})
			log := recordLocks(cl)
			f, err := cl.Create("/one", stripeSize, stripes)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range writes {
				if multi {
					err = f.WriteMulti([]WriteOp{w})
				} else {
					_, err = f.WriteAt(w.Data, w.Off)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			reqs = asked(*log)
			for st := range uint32(stripes) {
				buf := make([]byte, 4*stripeSize)
				cl.pc.Read(uint64(f.Resource(st)), 0, buf)
				cached = append(cached, buf)
			}
		})
		return reqs, cached
	}
	for _, pol := range []dlm.Policy{dlm.SeqDLM(), dlm.Datatype()} {
		atReqs, atCache := run(pol, false)
		multiReqs, multiCache := run(pol, true)
		if len(atReqs) == 0 || !slices.Equal(atReqs, multiReqs) {
			t.Errorf("%s: WriteMulti of one op asked for %v, WriteAt for %v", pol.Name, multiReqs, atReqs)
		}
		for st := range atCache {
			if !bytes.Equal(atCache[st], multiCache[st]) {
				t.Errorf("%s: stripe %d caches different bytes after WriteMulti than after WriteAt", pol.Name, st)
			}
		}
	}
}

// TestWriteMultiLocksAscendingExactWhereGapped: a WriteMulti whose
// pieces come in no order locks its stripes in ascending order, one
// lock each. Under DLM-datatype a stripe whose pieces leave a gap is
// locked by its exact extents and every other stripe by its range;
// under SeqDLM every lock is a range.
func TestWriteMultiLocksAscendingExactWhereGapped(t *testing.T) {
	const ss = 4096 // three stripes: file row r of stripe s is [(3r+s)·ss, (3r+s+1)·ss)
	ops := []WriteOp{
		{Off: 3*ss + 100, Data: bytes.Repeat([]byte{1}, 50)}, // stripe 0 [4196, 4246)
		{Off: 2*ss + 10, Data: bytes.Repeat([]byte{2}, 20)},  // stripe 2 [10, 30)
		{Off: 2*ss + 30, Data: bytes.Repeat([]byte{3}, 20)},  // stripe 2 [30, 50): follows on
		{Off: 100, Data: bytes.Repeat([]byte{4}, 50)},        // stripe 0 [100, 150): a gap
		{Off: ss + 200, Data: bytes.Repeat([]byte{5}, 10)},   // stripe 1 [200, 210)
		{Off: ss + 100, Data: bytes.Repeat([]byte{6}, 100)},  // stripe 1 [100, 200): adjacent
	}
	for _, tc := range []struct {
		pol  dlm.Policy
		want [3]lockReq // per stripe, without resource and mode
	}{
		{dlm.Datatype(), [3]lockReq{
			{rng: extent.New(100, 4246), extents: "[100, 150)[4196, 4246)"},
			{rng: extent.New(100, 210)},
			{rng: extent.New(10, 50)},
		}},
		{dlm.SeqDLM(), [3]lockReq{
			{rng: extent.New(0, 2*ss)},
			{rng: extent.New(0, ss)},
			{rng: extent.New(0, ss)},
		}},
	} {
		h := newHarness(t, tc.pol, 2)
		cl := h.client(Config{})
		log := recordLocks(cl)
		f, err := cl.Create("/multi", ss, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteMulti(ops); err != nil {
			t.Fatal(err)
		}
		got := asked(*log)
		if len(got) != 3 {
			t.Fatalf("%s: %d lock requests, want 3: %v", tc.pol.Name, len(got), got)
		}
		for st, r := range got {
			want := tc.want[st]
			want.res, want.mode = f.Resource(uint32(st)), r.mode
			if r != want {
				t.Errorf("%s: request %d is %+v, want %+v", tc.pol.Name, st, r, want)
			}
		}
		for _, op := range ops {
			buf := make([]byte, len(op.Data))
			if _, err := f.ReadAt(buf, op.Off); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, op.Data) {
				t.Errorf("%s: piece at %d reads %v", tc.pol.Name, op.Off, buf[:4])
			}
		}
	}
}

// TestWriteMultiRejectsNegativeOffset: a piece at a negative offset is
// refused before any lock is taken, and the client still closes.
func TestWriteMultiRejectsNegativeOffset(t *testing.T) {
	h := newHarness(t, dlm.SeqDLM(), 1)
	cl := h.client(Config{})
	f, err := cl.Create("/neg", 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteMulti([]WriteOp{{Off: -5, Data: []byte("abc")}}); err == nil {
		t.Fatal("WriteMulti at offset -5 succeeded")
	}
	closed := make(chan struct{})
	go func() {
		cl.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked after the refused write")
	}
}

// cachedWriteAtAllocs is the budget of TestAllocBudgetCachedWriteAt:
// heap allocations of one 64 KiB WriteAt over four stripes whose locks
// the client has cached.
const cachedWriteAtAllocs = 0

// TestAllocBudgetCachedWriteAt bounds what a write under cached locks
// costs the host in allocations: the segments, stripes and handles live
// on the stack, and the pages are already there.
func TestAllocBudgetCachedWriteAt(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	h := newHarness(t, dlm.SeqDLM(), 2)
	cl := h.client(Config{})
	f, err := cl.Create("/alloc", 16<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{7}, 64<<10)
	write := func() {
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if got := testing.AllocsPerRun(100, write); got > cachedWriteAtAllocs {
		t.Errorf("%.1f allocations per cached 64 KiB WriteAt, budget %d", got, cachedWriteAtAllocs)
	}
}
