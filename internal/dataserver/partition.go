package dataserver

import (
	"context"
	"sync/atomic"
	"time"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
	"ccpfs/internal/rpc"
	"ccpfs/internal/wire"
)

// PartitionConfig makes the node's DLM master only a subset of the
// lock space's hash slots (DESIGN.md §12). With a Coordinator the node
// acquires and renews time-bounded leases on its slots and may take
// over the slots of a peer whose leases lapse, rebuilding them from
// client replay; without one, mastership is static (the multi-process
// deployment of cmd/ccpfs-server, where Servers/Index carve the slot
// space with partition.Uniform).
type PartitionConfig struct {
	// Coordinator arbitrates leases. Nil selects static mastership.
	Coordinator *partition.Coordinator
	// Index is this node's position in the partition map — the value
	// clients route by.
	Index int32
	// Servers is the total lock-server count (static mode only).
	Servers int
	// Slots overrides the initial claim; nil claims Uniform(n)[Index].
	Slots []partition.Slot
	// Takeover lets the node claim expired slots of dead peers.
	Takeover bool
	// RemoteMinSN and RemoteForceSync route the extent-cache cleanup
	// daemon's lock queries to the slot's current master when this node
	// stores a stripe it does not master (lock and data placement are
	// independent once the lock space is partitioned). Nil leaves the
	// daemon with local-only answers, which is only sound when it does
	// not run or the node masters every stripe it stores.
	RemoteMinSN     func(stripe uint64, rng extent.Extent) (extent.SN, bool)
	RemoteForceSync func(stripe uint64)
}

// partState is the lease agent's runtime state.
type partState struct {
	takeovers atomic.Int64
}

// initPartition installs the node's initial slot view. Called from New.
func (s *Server) initPartition() {
	p := s.cfg.Partition
	slots := p.Slots
	if p.Coordinator != nil {
		if slots == nil {
			slots = partition.Uniform(int(p.Index) + 1)[p.Index] // degenerate default; cluster always passes Slots
		}
		granted, epoch, expiry := p.Coordinator.Acquire(p.Index, slots)
		s.DLM.SetSlots(epoch, granted)
		s.DLM.SetLeaseExpiry(expiry)
		return
	}
	if slots == nil && p.Servers > 0 {
		slots = partition.Uniform(p.Servers)[p.Index]
	}
	s.DLM.SetSlots(1, slots)
}

// leaseDaemon renews this node's slot leases at a third of the TTL and,
// when Takeover is set, claims slots whose leases lapsed (a dead peer)
// and rebuilds them via client replay. Renewal can only shrink the
// owned set: slots are grown exclusively through adoptSlots or a
// migration install, both of which put the lock tables in place before
// the slot starts serving — a renewal that "discovered" a transferred
// slot before its state arrived would serve grants from an empty table.
func (s *Server) leaseDaemon() {
	p := s.cfg.Partition
	tick := p.Coordinator.TTL() / 3
	if tick <= 0 {
		tick = 50 * time.Millisecond
	}
	for s.clk.SleepCtx(s.baseCtx, tick) {
		s.partMu.Lock()
		held, expiry := p.Coordinator.Renew(p.Index)
		s.DLM.SetLeaseExpiry(expiry)
		in := make(map[partition.Slot]bool, len(held))
		for _, sl := range held {
			in[sl] = true
		}
		cur := s.DLM.OwnedSlots()
		keep := cur[:0]
		for _, sl := range cur {
			if in[sl] {
				keep = append(keep, sl)
			}
		}
		if len(keep) != len(cur) {
			s.DLM.SetSlots(p.Coordinator.Epoch(), keep)
		}
		if p.Takeover && !s.draining.Load() {
			if expired := p.Coordinator.Expired(); len(expired) > 0 {
				granted, epoch, exp := p.Coordinator.Acquire(p.Index, expired)
				if len(granted) > 0 {
					s.adoptSlots(epoch, granted)
					s.DLM.SetLeaseExpiry(exp)
					s.partState.takeovers.Add(1)
				}
			}
		}
		s.partMu.Unlock()
	}
}

// adoptSlots rebuilds newly claimed slots from client replay (§IV-C2,
// filtered by slot) and takes mastership of them. The sequencers of the
// adopted slots resume at the epoch's TakeoverFloor: the dead master's
// released locks left SNs at the data servers that no client can
// replay. The handler gate is held for the whole gather+restore, as in
// full-crash Recover.
func (s *Server) adoptSlots(epoch uint64, slots []partition.Slot) {
	s.gate.Lock()
	defer s.gate.Unlock()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Partition.Coordinator.TTL())
	defer cancel()
	// A refused replay (a malformed record) installs nothing and takes
	// no slot; the records came from this server's own clients, whose
	// exports are valid by construction.
	_ = s.DLM.Restore(dlm.LockState{
		Epoch:     epoch,
		Slots:     slots,
		Floor:     dlm.TakeoverFloor(epoch),
		Resources: s.gather(ctx, slots),
	})
}

// partitionMap answers a client's map-refresh request.
func (s *Server) partitionMap() *wire.PartitionMapReply {
	p := s.cfg.Partition
	if p == nil {
		return &wire.PartitionMapReply{} // unpartitioned: epoch 0, no owners
	}
	var m *partition.Map
	if p.Coordinator != nil {
		m = p.Coordinator.Snapshot()
	} else {
		n := p.Servers
		if n <= 0 {
			n = 1
		}
		m = partition.UniformMap(1, n)
	}
	rep := &wire.PartitionMapReply{Epoch: m.Epoch, Owners: make([]int32, partition.NumSlots)}
	copy(rep.Owners, m.Owner[:])
	return rep
}

// setupPartition registers the partition-service handlers: map refresh
// for clients, freeze/install for the migration orchestrator.
func (s *Server) setupPartition(ep *rpc.Endpoint) {
	ep.Handle(wire.MPartitionMap, func(_ context.Context, p []byte) (wire.Msg, error) {
		return s.partitionMap(), nil
	})

	ep.Handle(wire.MSlotFreeze, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.SlotFreezeRequest
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		if s.cfg.Partition == nil {
			return nil, wire.Errorf(wire.CodeInvalid, "dataserver: not partitioned")
		}
		s.partMu.Lock()
		defer s.partMu.Unlock()
		// The gate quiesces releases/acks so none can land between the
		// export copying a lock and the new master installing it.
		s.gate.Lock()
		st, err := s.DLM.FreezeExportSlot(partition.Slot(req.Slot))
		s.gate.Unlock()
		if err != nil {
			return nil, err
		}
		return slotToWire(st), nil
	})

	ep.Handle(wire.MSlotInstall, func(_ context.Context, p []byte) (wire.Msg, error) {
		var req wire.SlotInstall
		if err := wire.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		if s.cfg.Partition == nil {
			return nil, wire.Errorf(wire.CodeInvalid, "dataserver: not partitioned")
		}
		s.partMu.Lock()
		defer s.partMu.Unlock()
		s.gate.Lock()
		err := s.DLM.Restore(slotFromWire(req.Epoch, &req.State))
		s.gate.Unlock()
		if err != nil {
			return nil, err
		}
		s.DLM.Stats.SlotMigrationsIn.Add(1)
		return &wire.Ack{}, nil
	})
}

// slotToWire converts a frozen slot's exported state to its wire form.
func slotToWire(st dlm.LockState) *wire.SlotState {
	w := &wire.SlotState{Slot: uint32(st.Slots[0]), Floor: uint64(st.Floor)}
	for _, re := range st.Resources {
		wr := wire.SlotResource{Resource: uint64(re.Resource), NextSN: uint64(re.NextSN), Grants: re.Grants}
		for _, l := range re.Locks {
			wr.Locks = append(wr.Locks, dlm.RecordToWire(l))
		}
		w.Resources = append(w.Resources, wr)
	}
	return w
}

// slotFromWire converts a migrating slot's wire state to the Restore
// that takes it at epoch.
func slotFromWire(epoch uint64, w *wire.SlotState) dlm.LockState {
	st := dlm.LockState{Epoch: epoch, Slots: []partition.Slot{partition.Slot(w.Slot)}, Floor: extent.SN(w.Floor)}
	for _, wr := range w.Resources {
		re := dlm.ResourceState{Resource: dlm.ResourceID(wr.Resource), NextSN: extent.SN(wr.NextSN), Grants: wr.Grants}
		for _, l := range wr.Locks {
			re.Locks = append(re.Locks, dlm.RecordFromWire(l))
		}
		st.Resources = append(st.Resources, re)
	}
	return st
}
