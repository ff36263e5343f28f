package dlm

import (
	"fmt"
	"slices"
	"time"

	"ccpfs/internal/partition"
	"ccpfs/internal/wire"
)

// This file is the engine side of the partition map layer (ROADMAP
// item 1): a server masters only the hash slots it holds leases on,
// refuses everything else with wire.ErrNotOwner (the redirect signal
// clients refresh their partition map on), and can freeze and export a
// slot's entire lock table for online migration; the new master
// installs it with Restore (recovery.go), as it installs a takeover's
// replay. See DESIGN.md §12.

// slotView is the server's immutable view of the slots it masters,
// published behind an atomic pointer: readers load it on every Lock,
// writers replace it wholesale and the GC reclaims the old one. A nil
// view means the engine is unpartitioned and masters the whole lock
// space — the single-server mode every pre-partition test and benchmark
// runs in.
type slotView struct {
	epoch  uint64
	owned  [partition.NumSlots]bool
	frozen [partition.NumSlots]bool
}

// CheckMaster reports whether this engine currently masters id's slot:
// nil when it does, wire.ErrNotOwner when the slot is unowned, frozen
// for migration, or the server's lease has expired. RPC handlers call
// it before mutating lock state on behalf of a client.
func (s *Server) CheckMaster(id ResourceID) error {
	v := s.slots.Load()
	if v == nil {
		return nil
	}
	slot := partition.SlotOf(uint64(id))
	if !v.owned[slot] || v.frozen[slot] {
		return wire.ErrNotOwner
	}
	if exp := s.leaseExpiry.Load(); exp != 0 && s.clk.Now().UnixNano() > exp {
		return wire.ErrNotOwner
	}
	return nil
}

// PartitionEpoch returns the epoch of the engine's slot view, or 0
// when unpartitioned.
func (s *Server) PartitionEpoch() uint64 {
	if v := s.slots.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// OwnedSlots returns the slots the engine currently masters (frozen
// ones excluded), or nil when unpartitioned.
func (s *Server) OwnedSlots() []partition.Slot {
	v := s.slots.Load()
	if v == nil {
		return nil
	}
	var out []partition.Slot
	for i := range v.owned {
		if v.owned[i] && !v.frozen[i] {
			out = append(out, partition.Slot(i))
		}
	}
	return out
}

// SetLeaseExpiry bounds the engine's mastership in time: past t every
// slot is refused even if still marked owned, so a server whose lease
// daemon stalls can never grant concurrently with its successor. Zero
// t removes the bound.
func (s *Server) SetLeaseExpiry(t time.Time) {
	if t.IsZero() {
		s.leaseExpiry.Store(0)
		return
	}
	s.leaseExpiry.Store(t.UnixNano())
}

// SetSlots replaces the engine's slot view: the engine masters exactly
// the given slots at the given epoch. Slots dropped relative to the
// previous view (a lease that lapsed and was taken over) are purged —
// their waiters fail with wire.ErrNotOwner so clients re-request at
// the successor, and their lock tables are dropped because the
// successor rebuilds them from client replay; keeping stale copies
// here could only serve split-brain grants.
func (s *Server) SetSlots(epoch uint64, owned []partition.Slot) {
	v := &slotView{epoch: epoch}
	for _, sl := range owned {
		if sl >= 0 && sl < partition.NumSlots {
			v.owned[sl] = true
		}
	}
	s.slotsMu.Lock()
	prev := s.slots.Swap(v)
	s.slotsMu.Unlock()
	var dropped []partition.Slot
	if prev != nil {
		for i := range prev.owned {
			if prev.owned[i] && !v.owned[i] {
				dropped = append(dropped, partition.Slot(i))
			}
		}
	}
	for _, sl := range dropped {
		s.purgeSlot(sl)
	}
	s.Stats.SlotsOwned.Set(int64(len(owned)))
}

// addSlots extends the current view with newly claimed slots at a new
// epoch (takeover or migration install).
func (s *Server) addSlots(epoch uint64, slots []partition.Slot) {
	s.slotsMu.Lock()
	defer s.slotsMu.Unlock()
	v := &slotView{epoch: epoch}
	if prev := s.slots.Load(); prev != nil {
		*v = *prev
		v.epoch = epoch
	}
	n := 0
	for _, sl := range slots {
		if sl >= 0 && sl < partition.NumSlots {
			v.owned[sl] = true
			v.frozen[sl] = false
		}
	}
	for i := range v.owned {
		if v.owned[i] {
			n++
		}
	}
	s.slots.Store(v)
	s.Stats.SlotsOwned.Set(int64(n))
}

// purgeSlot fails every waiter in a slot with wire.ErrNotOwner and
// drops the slot's resources from the resource map.
func (s *Server) purgeSlot(sl partition.Slot) {
	for _, res := range s.takeSlotResources(sl) {
		res.mu.Lock()
		s.failWaiters(res, wire.ErrNotOwner)
		res.mu.Unlock()
	}
}

// takeSlotResources removes and returns every resource in a slot from
// the resource map, in ascending id order. Goroutines already holding a
// resource pointer keep a valid (now orphaned) object; the engine-side
// re-check under res.mu in Lock and the data server's handler gate keep
// them from mutating state that has already been exported.
func (s *Server) takeSlotResources(sl partition.Slot) []*resource {
	var out []*resource
	s.resMu.Lock()
	for id, r := range s.resources {
		if partition.SlotOf(uint64(id)) == sl {
			out = append(out, r)
			delete(s.resources, id)
		}
	}
	s.resMu.Unlock()
	sortByID(out)
	return out
}

// FreezeExportSlot freezes one owned slot and exports its lock tables
// for transfer: new requests for the slot fail with wire.ErrNotOwner
// (clients retry), queued waiters are redirected the same way, and the
// slot's resources are detached from the engine. After it returns the
// engine no longer masters the slot; the new master installs the state
// with Restore, every resource's sequencer resuming exactly where this
// engine left it.
//
// The caller must quiesce releases/acks for the duration (the data
// server holds its handler gate), so no Release can land between the
// export copying a lock and the new master installing it — the lost
// release would leave a zombie lock blocking the resource forever.
func (s *Server) FreezeExportSlot(sl partition.Slot) (LockState, error) {
	if sl < 0 || sl >= partition.NumSlots {
		return LockState{}, fmt.Errorf("dlm: freeze: bad slot %d", sl)
	}
	// Publish frozen first: any Lock that passed CheckMaster before now
	// re-checks under res.mu and fails before enqueueing.
	s.slotsMu.Lock()
	prev := s.slots.Load()
	if prev == nil || !prev.owned[sl] {
		s.slotsMu.Unlock()
		return LockState{}, wire.ErrNotOwner
	}
	frozen := *prev
	frozen.frozen[sl] = true
	s.slots.Store(&frozen)
	s.slotsMu.Unlock()
	s.resMu.RLock()
	exp := LockState{Slots: []partition.Slot{sl}, Floor: s.snFloor}
	s.resMu.RUnlock()
	var acts []activationMsg
	for _, res := range s.takeSlotResources(sl) {
		res.mu.Lock()
		s.failWaiters(res, wire.ErrNotOwner)
		// Outstanding handoff delegations are force-resolved before the
		// copy (DESIGN.md §13): predecessor chains are retired here and
		// successors export as plain granted locks, so the importing
		// master never holds delegation state it cannot reclaim. The
		// activations are delivered once the freeze completes.
		for _, l := range slices.Clone(res.granted.list) {
			if l.delegated {
				acts = s.forceResolve(res, l, acts)
			}
		}
		re := ResourceState{
			Resource: res.id,
			NextSN:   res.nextSN,
			Grants:   uint64(res.grants),
		}
		for _, l := range res.granted.list {
			re.Locks = append(re.Locks, LockRecord{
				Resource: res.id,
				Client:   l.client,
				LockID:   l.id,
				Mode:     l.mode,
				Range:    l.rng,
				SN:       l.sn,
				State:    l.state,
			})
		}
		res.mu.Unlock()
		if len(re.Locks) > 0 || re.NextSN > 0 || re.Grants > 0 {
			exp.Resources = append(exp.Resources, re)
		}
	}
	// Drop ownership: the slot now belongs to whoever installs the
	// export. (frozen is cleared with the owned bit; both gate Lock.)
	s.slotsMu.Lock()
	dropped := *s.slots.Load()
	dropped.owned[sl] = false
	dropped.frozen[sl] = false
	s.slots.Store(&dropped)
	s.slotsMu.Unlock()
	s.Stats.SlotMigrationsOut.Add(1)
	for _, a := range acts {
		s.sendActivation(a)
	}
	return exp, nil
}
