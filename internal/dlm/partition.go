package dlm

import (
	"fmt"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
	"ccpfs/internal/sim"
	"ccpfs/internal/wire"
)

// This file is the engine side of the partition map layer (ROADMAP
// item 1): a server masters only the hash slots it holds leases on,
// refuses everything else with wire.ErrNotOwner (the redirect signal
// clients refresh their partition map on), and can freeze, export, and
// install a slot's entire lock table for online migration or
// replay-based failover. See DESIGN.md §12.

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
	prev := s.slots.Swap(v)
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
	for {
		prev := s.slots.Load()
		v := &slotView{epoch: epoch}
		if prev != nil {
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
		if s.slots.CompareAndSwap(prev, v) {
			s.Stats.SlotsOwned.Set(int64(n))
			return
		}
	}
}

// purgeSlot fails every waiter in a slot with wire.ErrNotOwner and
// drops the slot's resources from the shard maps.
func (s *Server) purgeSlot(sl partition.Slot) {
	for _, res := range s.takeSlotResources(sl) {
		res.mu.Lock()
		s.failWaiters(res)
		res.mu.Unlock()
	}
}

// failWaiters fails every live queue entry with wire.ErrNotOwner.
// Callers hold res.mu.
func (s *Server) failWaiters(res *resource) {
	for _, w := range res.queue {
		if !w.done {
			res.retire(w)
			sim.Send(s.clk, w.ch, lockResult{err: wire.ErrNotOwner})
		}
	}
	res.queue = res.queue[:0]
}

// takeSlotResources removes and returns every resource in a slot from
// the shard maps. Goroutines already holding a resource pointer keep a
// valid (now orphaned) object; the engine-side re-check under res.mu
// in Lock and the data server's handler gate keep them from mutating
// state that has already been exported.
func (s *Server) takeSlotResources(sl partition.Slot) []*resource {
	var out []*resource
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, r := range sh.resources {
			if partition.SlotOf(uint64(id)) == sl {
				out = append(out, r)
				delete(sh.resources, id)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// ResourceExport carries one resource's transferable state: its
// unreleased locks, its sequencer position, and its lifetime grant
// count (which drives the DLM-Lustre expansion threshold). Queued
// waiters are NOT transferred: they are failed with wire.ErrNotOwner
// at freeze time and the clients transparently re-request at the new
// master — a redirect, which the migration window makes
// indistinguishable from a slow grant.
type ResourceExport struct {
	Resource ResourceID
	NextSN   extent.SN
	Grants   uint64
	Locks    []LockRecord
}

// SlotExport is a frozen slot's full lock table, the unit of transfer
// for online migration (and, serialized as wire.SlotState, its wire
// form).
type SlotExport struct {
	Slot      partition.Slot
	Epoch     uint64 // the exporter's view epoch at freeze time
	Resources []ResourceExport
}

// FreezeExportSlot freezes one owned slot and exports its lock tables
// for transfer: new requests for the slot fail with wire.ErrNotOwner
// (clients retry), queued waiters are redirected the same way, and the
// slot's resources are detached from the engine. After it returns the
// engine no longer masters the slot.
//
// The caller must quiesce releases/acks for the duration (the data
// server holds its handler gate), so no Release can land between the
// export copying a lock and the new master installing it — the lost
// release would leave a zombie lock blocking the resource forever.
func (s *Server) FreezeExportSlot(sl partition.Slot) (SlotExport, error) {
	if sl < 0 || sl >= partition.NumSlots {
		return SlotExport{}, fmt.Errorf("dlm: freeze: bad slot %d", sl)
	}
	// Publish frozen first: any Lock that passed CheckMaster before now
	// re-checks under res.mu and fails before enqueueing.
	for {
		prev := s.slots.Load()
		if prev == nil || !prev.owned[sl] {
			return SlotExport{}, wire.ErrNotOwner
		}
		v := *prev
		v.frozen[sl] = true
		if s.slots.CompareAndSwap(prev, &v) {
			break
		}
	}
	exp := SlotExport{Slot: sl, Epoch: s.PartitionEpoch()}
	var acts []activationMsg
	for _, res := range s.takeSlotResources(sl) {
		res.mu.Lock()
		s.failWaiters(res)
		// Outstanding handoff delegations are force-resolved before the
		// copy (DESIGN.md §13): predecessor chains are retired here and
		// successors export as plain granted locks, so the importing
		// master never holds delegation state it cannot reclaim. The
		// activations are delivered once the freeze completes.
		acts = append(acts, s.resolveSlotDelegations(res)...)
		re := ResourceExport{
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
	for {
		prev := s.slots.Load()
		v := *prev
		v.owned[sl] = false
		v.frozen[sl] = false
		if s.slots.CompareAndSwap(prev, &v) {
			break
		}
	}
	s.Stats.SlotMigrationsOut.Add(1)
	for _, a := range acts {
		s.sendActivation(a)
	}
	return exp, nil
}

// InstallSlot installs a migrated slot's lock tables and takes
// mastership of the slot at the given (post-transfer) epoch. The
// sequencer of every resource resumes exactly where the exporter left
// it, so SNs stay globally unique per resource across any number of
// migrations. Granted locks are installed with their revocation flag
// cleared: an in-flight revocation's ack raced the handoff and died
// with the old master, so this engine re-fires it on the next conflict
// — clients treat the re-delivery as idempotent. CANCELING locks keep
// waiting for the client's release, which the client retries here
// after refreshing its map.
func (s *Server) InstallSlot(exp SlotExport, epoch uint64) error {
	if exp.Slot < 0 || exp.Slot >= partition.NumSlots {
		return fmt.Errorf("dlm: install: bad slot %d", exp.Slot)
	}
	var maxID LockID
	for _, re := range exp.Resources {
		if partition.SlotOf(uint64(re.Resource)) != exp.Slot {
			return fmt.Errorf("dlm: install: resource %d not in slot %d", re.Resource, exp.Slot)
		}
		res := s.resource(re.Resource)
		res.mu.Lock()
		if res.granted.len() > 0 || len(res.queue) > 0 {
			res.mu.Unlock()
			return fmt.Errorf("dlm: install: resource %d not empty", re.Resource)
		}
		if re.NextSN > res.nextSN {
			res.nextSN = re.NextSN
		}
		if g := int(re.Grants); g > res.grants {
			res.grants = g
		}
		for _, r := range re.Locks {
			if !r.Mode.Valid() || r.Range.Empty() {
				res.mu.Unlock()
				return fmt.Errorf("dlm: install: bad lock record %d", r.LockID)
			}
			res.granted.insert(&lock{
				id:         r.LockID,
				client:     r.Client,
				mode:       r.Mode,
				rng:        r.Range,
				state:      r.State,
				sn:         r.SN,
				revokeSent: r.State == Canceling,
			})
			if r.LockID > maxID {
				maxID = r.LockID
			}
		}
		res.mu.Unlock()
	}
	for {
		cur := s.nextLock.Load()
		if uint64(maxID) <= cur || s.nextLock.CompareAndSwap(cur, uint64(maxID)) {
			break
		}
	}
	s.addSlots(epoch, []partition.Slot{exp.Slot})
	s.Stats.SlotMigrationsIn.Add(1)
	return nil
}

// AdoptSlots takes mastership of slots claimed through lease takeover,
// rebuilding their lock tables from client-replayed records (the
// recovery.go path, filtered by slot). Records outside the adopted
// slots are dropped — a client replaying concurrently with two
// takeovers must not hand slot A's locks to slot B's new master.
//
// Delegations outstanding at the old master's death are force-resolved
// here, mirroring what FreezeExportSlot does for migration. A HandedOff
// record is a lock its holder owes (or already sent) to a successor:
// the holder will never release it through the server, so restoring it
// would wedge the resource — it is dropped. A Delegated record is the
// successor's promised lock; it is installed as a plain grant and
// re-activated with a server-sent activation, which either completes
// the successor's parked transfer wait (if the peer transfer died with
// the old epoch) or lands as a harmless duplicate.
func (s *Server) AdoptSlots(epoch uint64, slots []partition.Slot, records []LockRecord) error {
	in := make(map[partition.Slot]bool, len(slots))
	for _, sl := range slots {
		in[sl] = true
	}
	filtered := records[:0]
	for _, r := range records {
		if in[partition.SlotOf(uint64(r.Resource))] {
			filtered = append(filtered, r)
		}
	}
	kept, resolved := resolveReplay(filtered)
	if err := s.Restore(kept); err != nil {
		return err
	}
	s.addSlots(epoch, slots)
	for _, a := range resolved {
		s.Stats.HandoffReclaims.Add(1)
		s.sendActivation(a)
	}
	return nil
}
