package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ccpfs/internal/dataserver"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extcache"
	"ccpfs/internal/extent"
	"ccpfs/internal/pagecache"
	"ccpfs/internal/partition"
	"ccpfs/internal/rpc"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/wire"
)

// Layer drives: each calls one layer's public functions in a loop on a
// single goroutine, on the wall clock with no simulated delays
// (sim.Fast), and reports host ns per call. They say what a layer costs
// this machine in isolation; whether that cost matters is read off
// host_us_per_op on the workload that leans on the layer.

const (
	driveBatches = 5 // timed batches per drive, after one untimed
	driveBlock   = 4096
	driveWindow  = 256 // offsets cycle over this many blocks so structures stay a steady size
)

// driver runs drives at 1/scale of their calls per batch; the smoke
// scale raises it so that tests only check that the drives run.
type driver struct{ scale int }

// run calls prep (untimed) then fn n times, driveBatches+1 times, and
// returns the median ns per call of all but the first batch.
func (d driver) run(n int, prep func(), fn func(i int)) float64 {
	n = max(n/d.scale, 1)
	per := make([]float64, 0, driveBatches)
	for b := 0; b <= driveBatches; b++ {
		if prep != nil {
			prep()
		}
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if b > 0 {
			per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
		}
	}
	return summarize(per).Median
}

func noRevoke() dlm.Notifier {
	return dlm.NotifierFunc(func(context.Context, dlm.Revocation) {})
}

// directConn adapts an in-process lock server to dlm.ServerConn.
type directConn struct{ srv *dlm.Server }

func (d directConn) Lock(ctx context.Context, req dlm.Request) (dlm.Grant, error) {
	return d.srv.Lock(ctx, req)
}
func (d directConn) Release(_ context.Context, res dlm.ResourceID, id dlm.LockID) error {
	d.srv.Release(res, id)
	return nil
}
func (d directConn) Downgrade(_ context.Context, res dlm.ResourceID, id dlm.LockID, m dlm.Mode) error {
	return d.srv.Downgrade(res, id, m)
}

// runDrives returns every *.drive.* metric. A drive that cannot run
// (a layer call fails) is an error: the benchmark must not report a
// number for work that did not happen.
func runDrives(smoke bool) (map[string]float64, error) {
	d := driver{scale: 1}
	if smoke {
		d.scale = 20
	}
	ctx := context.Background()
	out := map[string]float64{}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	grantRelease := func(srv *dlm.Server, res dlm.ResourceID, rng extent.Extent) {
		g, err := srv.Lock(ctx, dlm.Request{Resource: res, Client: 1, Mode: dlm.NBW, Range: rng})
		check(err)
		srv.Release(res, g.LockID)
	}

	// dlm: uncontended grant+release; grant+release in the one free
	// tile of a resource holding 10k granted disjoint locks; a cached
	// lock hit on the client.
	srv := dlm.NewServer(dlm.SeqDLM(), noRevoke())
	out["dlm.drive.grant_release_ns"] = d.run(20000, nil, func(int) {
		grantRelease(srv, 1, extent.New(0, driveBlock))
	})

	tiled := dlm.SeqDLM()
	tiled.Expand = dlm.ExpandNone
	full := dlm.NewServer(tiled, noRevoke())
	const tiles, hole = 10240, 5120
	for i := 0; i < tiles; i++ {
		if i == hole {
			continue
		}
		_, err := full.Lock(ctx, dlm.Request{Resource: 1, Client: dlm.ClientID(i + 2), Mode: dlm.NBW,
			Range: extent.Span(int64(i)*driveBlock, driveBlock)})
		check(err)
	}
	out["dlm.drive.conflict_grant_ns"] = d.run(10000, nil, func(int) {
		grantRelease(full, 1, extent.Span(hole*driveBlock, driveBlock))
	})

	noFlush := dlm.FlusherFunc(func(context.Context, dlm.ResourceID, extent.Extent, extent.SN) error { return nil })
	lc := dlm.NewLockClient(1, dlm.SeqDLM(), func(dlm.ResourceID) dlm.ServerConn { return directConn{srv} }, noFlush)
	h, err := lc.Acquire(ctx, 2, dlm.NBW, extent.New(0, driveWindow*driveBlock))
	if err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	lc.Unlock(h)
	out["dlm.drive.cached_hit_ns"] = d.run(200000, nil, func(int) {
		h, err := lc.Acquire(ctx, 2, dlm.NBW, extent.New(0, driveBlock))
		check(err)
		lc.Unlock(h)
	})
	lc.Close()

	// pagecache: write then read one page; collect one dirty 64 KiB
	// block out of a 4 MiB dirty stripe.
	pc := pagecache.New(pagecache.Config{PageSize: driveBlock})
	page, buf := make([]byte, driveBlock), make([]byte, driveBlock)
	out["pagecache.drive.write_read_ns"] = d.run(50000, nil, func(i int) {
		off := int64(i%driveWindow) * driveBlock
		pc.Write(1, off, page, extent.SN(i+1))
		pc.Read(1, off, buf)
	})
	const dirtyBlocks, dirtyBlock = 64, 64 << 10
	big := make([]byte, dirtyBlock)
	out["pagecache.drive.collect_dirty_ns"] = d.run(dirtyBlocks, func() {
		for i := int64(0); i < dirtyBlocks; i++ {
			pc.Write(2, i*dirtyBlock, big, 1)
		}
	}, func(i int) {
		pc.CollectDirty(2, extent.Span(int64(i)*dirtyBlock, dirtyBlock), 1)
	})

	// rpc + transport: one serial round trip over a zero-latency fabric.
	net := memnet.New(sim.Fast())
	l, err := net.Listen("drive")
	if err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	rs := rpc.NewServer(l, rpc.Options{}, func(ep *rpc.Endpoint) {
		ep.Handle(wire.MRelease, func(context.Context, []byte) (wire.Msg, error) { return &wire.Ack{}, nil })
	})
	go rs.Serve()
	defer rs.Close()
	conn, err := net.Dial("drive")
	if err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	ep := rpc.NewEndpoint(conn, rpc.Options{})
	ep.Start()
	req := &wire.ReleaseRequest{Resource: 7, LockID: 9}
	out["rpc.drive.roundtrip_ns"] = d.run(5000, nil, func(int) {
		check(ep.Call(ctx, wire.MRelease, req, nil))
	})
	ep.Close()

	// wire: encode and decode one lock request.
	lockReq := &wire.LockRequest{Resource: 7, Client: 3, Mode: uint8(dlm.NBW), Range: extent.New(0, driveBlock)}
	var m0, m1 runtime.MemStats
	marshals := 0
	runtime.ReadMemStats(&m0)
	out["wire.drive.marshal_ns"] = d.run(200000, nil, func(int) {
		var back wire.LockRequest
		check(wire.Unmarshal(wire.Marshal(lockReq), &back))
		marshals++
	})
	runtime.ReadMemStats(&m1)
	out["wire.drive.marshal_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(marshals)

	// dataserver: the server-side write routine on one 4 KiB block.
	ds := dataserver.New(dataserver.Config{Name: "drive", Policy: dlm.SeqDLM()})
	freq := &wire.FlushRequest{Resource: 1, Client: 1}
	out["dataserver.drive.flush_ns"] = d.run(20000, nil, func(i int) {
		freq.Blocks = append(freq.Blocks[:0], wire.Block{
			Range: extent.Span(int64(i%driveWindow)*driveBlock, driveBlock), SN: uint64(i + 1), Data: page})
		check(ds.Flush(freq))
	})
	ds.Close()

	// extcache + extent: SN-tagged insert, MaxSN probe, and the two
	// interval structures underneath.
	ec := extcache.New(0, false)
	out["extcache.drive.apply_ns"] = d.run(50000, nil, func(i int) {
		ec.Apply(1, extent.Span(int64(i%driveWindow)*driveBlock, driveBlock), extent.SN(i+1))
	})
	out["extcache.drive.maxsn_ns"] = d.run(200000, nil, func(i int) {
		ec.MaxSN(1, extent.Span(int64(i%driveWindow)*driveBlock, driveBlock))
	})
	var tree extent.Tree
	out["extent.drive.tree_insert_ns"] = d.run(50000, nil, func(i int) {
		tree.Insert(extent.Span(int64(i%driveWindow)*driveBlock, driveBlock), extent.SN(i+1))
	})
	var itree extent.ITree[int]
	for i := 0; i < tiles; i++ {
		itree.Insert(extent.Span(int64(i)*driveBlock, driveBlock), uint64(i), i)
	}
	hits := 0
	out["extent.drive.itree_query_ns"] = d.run(200000, nil, func(i int) {
		itree.VisitOverlap(extent.Span(int64(i%tiles)*driveBlock, driveBlock), func(extent.Extent, uint64, int) bool {
			hits++
			return true
		})
	})

	// partition: slot lookup, and grant+release routed over 4 engines
	// by the partition map (no admission limiter).
	pmap := partition.UniformMap(1, 4)
	var owners int32
	out["partition.drive.owner_of_ns"] = d.run(1000000, nil, func(i int) { owners += pmap.OwnerOf(uint64(i)) })
	engines := make([]*dlm.Server, 4)
	for i := range engines {
		engines[i] = dlm.NewServer(dlm.SeqDLM(), noRevoke())
	}
	out["partition.drive.grant_4srv_ns"] = d.run(20000, nil, func(i int) {
		rid := uint64(i % 64)
		grantRelease(engines[pmap.OwnerOf(rid)], dlm.ResourceID(rid), extent.New(0, driveBlock))
	})

	// sim: a virtual sleep (heap event, yield, resume) and a park/wake
	// hand-over between two goroutines while 64 others stay parked.
	out["sim.drive.sleep_wake_ns"] = driveInSim(func(clk sim.Clock) float64 {
		return d.run(20000, nil, func(int) { clk.Sleep(time.Microsecond) })
	})
	out["sim.drive.park_wake_ns"] = driveInSim(func(clk sim.Clock) float64 { return parkWake(d, clk) })

	if failed != nil {
		return nil, fmt.Errorf("layer drive: %w", failed)
	}
	if hits == 0 {
		return nil, fmt.Errorf("layer drive: interval queries found nothing")
	}
	_ = owners // only keeps the OwnerOf calls live
	return out, nil
}

// driveInSim runs f as the root goroutine of a fresh virtual clock.
func driveInSim(f func(clk sim.Clock) float64) float64 {
	v := sim.NewVClock(1)
	var ns float64
	v.Run(func() { ns = f(sim.Virtual(v)) })
	return ns
}

// parkWake measures one park + one wake: the root and a partner hand
// the run token back and forth through WaitOn/Wakeup, with 64 more
// goroutines parked on keys of their own the whole time.
func parkWake(d driver, clk sim.Clock) float64 {
	v := clk.V()
	type key struct{ _ int }
	rootKey, partnerKey := new(key), new(key)
	idle := make([]*key, 64)
	for i := range idle {
		idle[i] = new(key)
		clk.Go(func() { v.WaitOn(idle[i]) })
	}
	clk.Go(func() {
		for v.WaitOn(partnerKey) == sim.WakeKey {
			v.Wakeup(rootKey)
		}
	})
	clk.Sleep(time.Microsecond) // let all 65 park
	return d.run(10000, nil, func(int) {
		v.Wakeup(partnerKey)
		v.WaitOn(rootKey)
	}) / 2
}
