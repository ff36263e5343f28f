package main

import (
	"strings"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/obs"
	"ccpfs/internal/sim"
)

// counters is every public counter the harness reads at a phase
// boundary: the cluster's DLM aggregate, each server's registry, the
// clients' registries merged, and the clients' lock/IO time totals.
type counters struct {
	dlm     cluster.DLMAggregate
	servers []obs.Snapshot
	clients obs.Snapshot
	lockNs  int64
	ioNs    int64
}

func snapshot(c *cluster.Cluster, clients []*client.Client) *counters {
	s := &counters{dlm: c.DLMStatsBreakdown(), clients: obs.NewSnapshot()}
	for _, srv := range c.Servers {
		s.servers = append(s.servers, srv.Obs().Snapshot())
	}
	for _, cl := range clients {
		s.clients.Merge(cl.Obs().Snapshot())
		s.lockNs += cl.Stats.LockNs.Load()
		s.ioNs += cl.Stats.IONs.Load()
	}
	return s
}

// get reads a registry value by name; sampled funcs land in Gauges,
// owned counters in Counters.
func get(s obs.Snapshot, name string) int64 { return s.Counters[name] + s.Gauges[name] }

// prefixSum adds up every counter whose name starts with prefix.
func prefixSum(s obs.Snapshot, prefix string) int64 {
	var n int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// histSub is the histogram of the samples recorded between two
// snapshots of one instrument.
func histSub(a, b obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Max: a.Max}
	for i := range d.Buckets {
		d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
	}
	return d
}

// layerMetrics turns the counter deltas of one rep's measured phase
// (b before PIO, m between PIO and drain, a after drain) into the
// per-layer metrics. Drives, spans and the Eq. (1) comparison are
// added by the caller.
func layerMetrics(sp spec, hw sim.Hardware, r *repResult, b, m, a *counters) map[string]float64 {
	ops := float64(sp.ops())
	writtenMiB := float64(sp.written()) / mib
	cli := func(name string) float64 { return float64(get(a.clients, name) - get(b.clients, name)) }
	srvAt := func(i int, name string) float64 {
		return float64(get(a.servers[i], name) - get(b.servers[i], name))
	}
	srv := func(name string) float64 {
		var n float64
		for i := range a.servers {
			n += srvAt(i, name)
		}
		return n
	}
	// peak is the larger of the two boundary samples of a server gauge.
	peak := func(name string) float64 {
		var atMid, atEnd float64
		for i := range a.servers {
			atMid += float64(get(m.servers[i], name))
			atEnd += float64(get(a.servers[i], name))
		}
		return max(atMid, atEnd)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	d := a.dlm.Total.Sub(b.dlm.Total)
	grantWait := histSub(a.dlm.GrantWait, b.dlm.GrantWait)
	flushRPC := histSub(a.clients.Hist("client.flush_rpc"), b.clients.Hist("client.flush_rpc"))
	flushGroup := histSub(a.clients.Hist("client.flush_group"), b.clients.Hist("client.flush_group"))
	batch := histSub(a.servers[0].Hist("transport.batch_frames"), b.servers[0].Hist("transport.batch_frames"))

	var calls, frameBytes float64
	for i := range a.servers {
		calls += float64(prefixSum(a.servers[i], "rpc.calls.") - prefixSum(b.servers[i], "rpc.calls."))
		frameBytes += srvAt(i, "rpc.bytes_out")
	}
	calls += float64(prefixSum(a.clients, "rpc.calls.") - prefixSum(b.clients, "rpc.calls."))
	frameBytes += cli("rpc.bytes_out")
	readRPCs := cli("client.read_rpcs")
	payload := cli("client.flushed_bytes") + readRPCs*float64(sp.size)
	hits, misses := cli("client.read_cache_hits"), cli("client.read_cache_misses")
	lockHits, lockMisses := cli("lockclient.cache_hits"), cli("lockclient.cache_misses")
	flushed, discarded := srv("dataserver.flushed_bytes"), srv("dataserver.discarded_bytes")

	// storage.util_frac is computed, not measured: the device time the
	// model charges for the bytes and operations each server's store
	// saw, over the simulated length of the measured phase.
	var util float64
	for i := range a.servers {
		reads := srvAt(i, "rpc.handles.Read")
		busy := (srvAt(i, "dataserver.flushed_bytes")+reads*float64(sp.size))/hw.DiskBandwidth +
			(srvAt(i, "extcache.inserts")+reads)*hw.DiskLatency.Seconds()
		util = max(util, ratio(busy, r.simMeasured().Seconds()))
	}

	out := map[string]float64{
		"dlm.grants_per_op":          float64(d.Grants) / ops,
		"dlm.revocations_per_op":     float64(d.Revocations) / ops,
		"dlm.revoke_batch_size":      d.CoalescingFactor(),
		"dlm.early_grant_ratio":      ratio(float64(d.EarlyGrants), float64(d.Grants)),
		"dlm.early_revocation_ratio": ratio(float64(d.EarlyRevocations), float64(d.Revocations)),
		"dlm.conversions_per_op":     float64(d.Upgrades+d.Downgrades) / ops,
		"dlm.grant_wait_p50_us":      us(grantWait.Quantile(0.50)),
		"dlm.grant_wait_p99_us":      us(grantWait.Quantile(0.99)),
		"dlm.revocation_wait_ms":     float64(d.RevocationWait) / 1e6,
		"dlm.cancel_wait_ms":         float64(d.CancelWait) / 1e6,

		"dlm.handoff_ratio":             ratio(float64(d.Handoffs), float64(d.Revocations)),
		"dlm.handoff_reclaims":          float64(d.HandoffReclaims),
		"dlm.fan_grants_per_op":         float64(d.FanGrants) / ops,
		"dlm.lease_grants_per_op":       float64(d.LeaseGrants) / ops,
		"dlm.broadcasts":                float64(d.Broadcasts),
		"dlm.gathers":                   float64(d.Gathers),
		"dlm.writer_op_p50_us":          nsQuantile(r.writerLat, 0.5) / 1e3,
		"lockclient.cache_hit_ratio":    ratio(lockHits, lockHits+lockMisses),
		"lockclient.cancels_per_op":     cli("lockclient.cancels") / ops,
		"lockclient.revocations_per_op": cli("lockclient.revocations") / ops,

		"client.lock_share":           ratio(float64(a.lockNs-b.lockNs), float64(a.ioNs-b.ioNs)),
		"client.flush_rpcs_per_MiB":   cli("rpc.calls.Flush") / writtenMiB,
		"client.flush_rpc_p50_us":     us(flushRPC.Quantile(0.5)),
		"client.flush_group_p50_us":   us(flushGroup.Quantile(0.5)),
		"client.flush_amp":            cli("client.flushed_bytes") / float64(sp.written()),
		"client.read_cache_hit_ratio": ratio(hits, hits+misses),
		"client.read_rpcs_per_op":     readRPCs / ops,

		"pagecache.dirty_peak_MiB": float64(get(m.clients, "client.dirty_bytes")) / mib,
		"pagecache.cached_MiB":     float64(get(a.clients, "client.cached_bytes")) / mib,

		"rpc.calls_per_op": calls / ops,
		"rpc.lock_calls_per_op": (cli("rpc.calls.Lock") + cli("rpc.calls.Release") +
			cli("rpc.calls.Downgrade") + cli("rpc.calls.HandoffAck")) / ops,
		"rpc.flush_calls_per_op":     cli("rpc.calls.Flush") / ops,
		"rpc.read_calls_per_op":      cli("rpc.calls.Read") / ops,
		"rpc.peer_calls_per_op":      (cli("rpc.calls.Handoff") + cli("rpc.calls.LeasePropagate")) / ops,
		"rpc.bytes_per_op":           frameBytes / ops,
		"rpc.overhead_frac":          ratio(frameBytes-payload, payload),
		"transport.batch_frames_p50": float64(batch.Quantile(0.5)),

		"dataserver.flushed_MiB":    flushed / mib,
		"dataserver.discarded_frac": ratio(discarded, flushed+discarded),
		"dataserver.write_amp":      flushed / float64(sp.written()),

		"extcache.entries_peak":      peak("extcache.entries"),
		"extcache.pinned_peak":       peak("extcache.pinned"),
		"extcache.inserts_per_flush": ratio(srv("extcache.inserts"), srv("rpc.handles.Flush")),
		"extcache.cleaned":           srv("extcache.cleaned"),
		"extcache.forced_syncs":      srv("extcache.forced_syncs"),

		"storage.util_frac":      util,
		"sim.host_ms_per_sim_ms": ratio(r.hostMeasured().Seconds(), r.simMeasured().Seconds()),
	}
	return out
}
