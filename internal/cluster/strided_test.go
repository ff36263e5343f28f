package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ccpfs/internal/client"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

// TestVirtualStridedEarlyRevocation runs a 16-rank N-1 strided write
// into a 4-stripe file on Table I hardware under the virtual clock. A
// rank's write lock on a stripe grows neither past the next rank's
// request nor past another rank's CANCELING block, and it is granted
// early over the previous rank's CANCELING lock, so it goes out
// pre-revoked: its data leaves during the run, beside its neighbours'
// cancel flushes, and the disks merge the neighbouring blocks into few
// operations instead of taking stragglers one by one from the final
// Fsync.
func TestVirtualStridedEarlyRevocation(t *testing.T) {
	const ranks, writes, size = 16, 64, 64 << 10
	// When a grant may grow over another client's CANCELING lock, the
	// same run reads 288 early revocations and 51, 52, 50 and 52 write
	// operations on the four disks, 205 in all. With the cap it reads
	// 559 and 19, 20, 20 and 20: 79, against 64 for one operation per
	// 1 MiB stripe unit.
	const uncappedEarly, maxWriteOps = 288, 80
	v := sim.NewVClock(1)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	var ops []int64
	var early int64
	var err error
	v.Run(func() { ops, early, err = stridedWrite(hw, ranks, writes, size) })
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, n := range ops {
		total += n
	}
	t.Logf("write operations per server %v (%d in all), early revocations %d", ops, total, early)
	if early <= uncappedEarly {
		t.Errorf("early revocations = %d, want more than %d", early, uncappedEarly)
	}
	if total > maxWriteOps {
		t.Errorf("the disks took %d write operations, want at most %d", total, maxWriteOps)
	}
}

// stridedWrite has ranks clients write writes blocks of size bytes each
// N-1 strided into one file striped over every server, Fsyncs them and
// returns each server's device write operations and the DLM's early
// revocations.
func stridedWrite(hw sim.Hardware, ranks, writes int, size int64) ([]int64, int64, error) {
	c, err := New(Options{Servers: 4, Policy: dlm.SeqDLM(), Hardware: hw})
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	cls, err := c.Clients(ranks, "rank")
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		for _, cl := range cls {
			cl.Close()
		}
	}()
	files := make([]*client.File, ranks)
	for i, cl := range cls {
		if files[i], err = cl.OpenOrCreate("/strided", 1<<20, 4); err != nil {
			return nil, 0, err
		}
	}
	ctx := context.Background()
	errs := make([]error, ranks)
	grp := sim.NewGroup(c.Clock())
	for rank := range files {
		grp.Go(func() {
			buf := pattern(byte(rank+1), int(size))
			for k := 0; k < writes; k++ {
				if _, err := files[rank].WriteAtOpts(ctx, buf, int64(k*ranks+rank)*size, client.WriteOptions{}); err != nil {
					errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
					return
				}
			}
		})
	}
	grp.Wait()
	// The drain: every rank flushes what it still caches.
	grp = sim.NewGroup(c.Clock())
	for rank, f := range files {
		grp.Go(func() {
			if err := f.Fsync(); err != nil && errs[rank] == nil {
				errs[rank] = fmt.Errorf("rank %d fsync: %w", rank, err)
			}
		})
	}
	grp.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	ops := make([]int64, len(c.Servers))
	for i, s := range c.Servers {
		ops[i] = s.Obs().Snapshot().Counters["storage.write_ops"]
	}
	return ops, c.DLMStats().EarlyRevocations, nil
}
