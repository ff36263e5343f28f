package workload

import (
	"bytes"
	"testing"

	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

// TestPingPongDrainSkipsSupersededVersions: on the Table I device every
// flush of a pingpong overwrites the same whole stripes, so a flush that
// a later one already covers rides along with that one's device
// operation instead of paying its own. The drain is then a few device
// operations, not a queue of superseded versions, and the bytes the
// device skipped are still accounted for and never read back.
func TestPingPongDrainSkipsSupersededVersions(t *testing.T) {
	const size, stripes, exchanges = 64 << 10, 2, 64
	v := sim.NewVClock(1)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	var st Result
	var flushed, discarded, writeReqs, writeOps int64
	var got [stripes][]byte
	var err error
	v.Run(func() {
		var c *cluster.Cluster
		if c, err = cluster.New(cluster.Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw, Handoff: true}); err != nil {
			return
		}
		defer c.Close()
		if st, err = RunPingPong(c, PingPongConfig{
			Exchanges: exchanges, WriteSize: size, StripeSize: size, StripeCount: stripes,
		}); err != nil {
			return
		}
		flushed, discarded = c.FlushedBytes(), c.DiscardedBytes()
		for _, s := range c.Servers {
			snap := s.Obs().Snapshot()
			writeReqs += snap.Counters["storage.write_requests"]
			writeOps += snap.Counters["storage.write_ops"]
		}
		cl, e := c.NewClient("reader")
		if err = e; err != nil {
			return
		}
		defer cl.Close()
		f, e := cl.OpenOrCreate("/pingpong", size, stripes)
		if err = e; err != nil {
			return
		}
		for i := range got {
			got[i] = make([]byte, size)
			if _, err = f.ReadAt(got[i], int64(i)*size); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if flushed+discarded+st.Superseded != st.Bytes {
		t.Fatalf("flushed %d + discarded %d + superseded %d != written %d", flushed, discarded, st.Superseded, st.Bytes)
	}
	for i := range got {
		if !bytes.Equal(got[i], bytes.Repeat([]byte{exchanges}, size)) {
			t.Fatalf("stripe %d does not hold the last writer's block", i)
		}
	}
	if writeOps >= writeReqs {
		t.Fatalf("device: %d write ops for %d write requests, want fewer ops", writeOps, writeReqs)
	}
	op := hw.DiskLatency + sim.TransferTime(size, hw.DiskBandwidth)
	if st.Flush > 10*op {
		t.Fatalf("drain took %v, want at most %v (10 device operations)", st.Flush, 10*op)
	}
	t.Logf("drain %v, device %d write ops for %d requests", st.Flush, writeOps, writeReqs)
}
