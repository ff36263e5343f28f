package dlm

import (
	"cmp"
	"fmt"
	"slices"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
	"ccpfs/internal/wire"
)

// This file is how lock state reaches a new master (§IV-C2, DESIGN.md
// §12): "the server recovers lock states by gathering them from all
// clients". Clients export their held locks as LockRecords; a server
// rebuilding a full crash or a lease takeover restores them, and a
// migrating slot's frozen tables arrive the same way. All three end in
// one Restore, which resumes each resource's sequencer above every SN
// issued for it and the lock-ID allocator above every restored ID. (The
// other half of crash recovery — extent-log replay — lives in package
// extcache; flush-RPC redo is the client cache's redirty-on-error
// behaviour.)

// LockRecord describes one granted lock moving to a new master: as its
// client replays it, or as a frozen slot exports it.
type LockRecord struct {
	Resource ResourceID
	Client   ClientID
	LockID   LockID
	Mode     Mode
	Range    extent.Extent
	SN       extent.SN
	State    State
	// Delegated marks a delegated grant whose client-to-client transfer
	// has not arrived yet: the reporting client holds no usable lock,
	// only the server's promise of one. Restore force-resolves it the
	// way a freeze would.
	Delegated bool
	// HandedOff marks a lock its holder owes (or already sent) to a
	// delegation successor: the holder will never release it to the
	// server, so restoring it would wedge the resource forever.
	HandedOff bool
}

// Export returns records for every lock the client currently holds or
// is canceling, optionally filtered (filter nil = all). Canceling locks
// are reported too: their data flushing may still be in flight and the
// recovered server must keep ordering them.
func (c *LockClient) Export(filter func(ResourceID) bool) []LockRecord {
	var out []LockRecord
	c.st.mu.Lock()
	for res, list := range c.st.cached {
		if filter != nil && !filter(res) {
			continue
		}
		for _, h := range list {
			if h.releaseSent {
				continue
			}
			out = append(out, LockRecord{
				Resource: res,
				Client:   c.id,
				LockID:   h.id,
				Mode:     h.mode,
				Range:    h.rng,
				SN:       h.sn,
				State:    h.state,
				// A stamped handle owes its lock to a successor: its
				// cancel path transfers instead of releasing, so the
				// server must never wait for this lock's release.
				HandedOff: h.stamp != nil,
			})
		}
	}
	// Delegated grants still waiting for their transfer have no
	// handle yet; report them from the wait registry so a
	// taking-over master can force-resolve them instead of leaving
	// the waiter parked on a transfer that died with the old master.
	for k, tw := range c.st.pendingHandoffs {
		if tw.need == 0 || filter != nil && !filter(k.res) {
			continue // parts that raced ahead of their grant reply
		}
		out = append(out, LockRecord{
			Resource:  k.res,
			Client:    c.id,
			LockID:    k.id,
			Mode:      tw.mode,
			Range:     tw.rng,
			SN:        tw.sn,
			State:     Granted,
			Delegated: true,
		})
	}
	c.st.mu.Unlock()
	// The maps iterate in random order; report in ascending lock order.
	slices.SortFunc(out, func(a, b LockRecord) int {
		return cmp.Or(cmp.Compare(a.Resource, b.Resource), cmp.Compare(a.LockID, b.LockID))
	})
	return out
}

// ExportSlots returns records for the client's locks whose resources
// hash into the given slots — the partial-replay form of Export a
// recovering successor uses after claiming a dead master's slots.
// Locks on slots still served by live masters are not reported (and
// must not be: replaying them into the successor would double-master
// them). Nil slots exports nothing.
func (c *LockClient) ExportSlots(slots []partition.Slot) []LockRecord {
	var in [partition.NumSlots]bool
	for _, s := range slots {
		if s >= 0 && s < partition.NumSlots {
			in[s] = true
		}
	}
	return c.Export(func(res ResourceID) bool {
		return in[partition.SlotOf(uint64(res))]
	})
}

// RecordToWire converts a lock record to its wire form.
func RecordToWire(r LockRecord) wire.LockRecord {
	var flags uint8
	if r.Delegated {
		flags |= wire.LockFlagDelegated
	}
	if r.HandedOff {
		flags |= wire.LockFlagHandedOff
	}
	return wire.LockRecord{
		Resource: uint64(r.Resource),
		Client:   uint32(r.Client),
		LockID:   uint64(r.LockID),
		Mode:     uint8(r.Mode),
		Range:    r.Range,
		SN:       uint64(r.SN),
		State:    uint8(r.State),
		Flags:    flags,
	}
}

// RecordFromWire converts a wire lock record to its dlm form.
func RecordFromWire(w wire.LockRecord) LockRecord {
	return LockRecord{
		Resource:  ResourceID(w.Resource),
		Client:    ClientID(w.Client),
		LockID:    LockID(w.LockID),
		Mode:      Mode(w.Mode),
		Range:     w.Range,
		SN:        extent.SN(w.SN),
		State:     State(w.State),
		Delegated: w.Flags&wire.LockFlagDelegated != 0,
		HandedOff: w.Flags&wire.LockFlagHandedOff != 0,
	}
}

// ResourceState is one resource's state as it moves to a new master:
// its unreleased locks and, when a freeze exported it, its sequencer
// position and lifetime grant count (which drives the DLM-Lustre
// expansion threshold). A replayed resource carries only its locks.
// Queued waiters never move: a freeze fails them with wire.ErrNotOwner
// and their clients re-request at the new master.
type ResourceState struct {
	Resource ResourceID
	NextSN   extent.SN
	Grants   uint64
	Locks    []LockRecord
}

// LockState is the lock state a Restore installs: the locks clients
// replayed after a full crash or a lease takeover, or a frozen slot's
// tables (FreezeExportSlot).
type LockState struct {
	// Slots are the slots the engine masters from Epoch on. Resources
	// outside them are dropped. Nil leaves the slot view as it is: the
	// full-crash restore of an engine that masters what it had.
	Epoch uint64
	Slots []partition.Slot
	// Floor is the least SN a restored resource's sequencer resumes at,
	// and the least a resource the engine creates later starts at: it
	// must exceed every SN a data server may hold for the slots. A
	// freeze exports its engine's floor.
	Floor     extent.SN
	Resources []ResourceState
}

// ByResource groups replayed records into resource states, in
// ascending resource and lock order, so a restore is deterministic.
func ByResource(records []LockRecord) []ResourceState {
	slices.SortFunc(records, func(a, b LockRecord) int {
		return cmp.Or(cmp.Compare(a.Resource, b.Resource), cmp.Compare(a.LockID, b.LockID))
	})
	var out []ResourceState
	for i, r := range records {
		if i == 0 || r.Resource != records[i-1].Resource {
			out = append(out, ResourceState{Resource: r.Resource})
		}
		re := &out[len(out)-1]
		re.Locks = append(re.Locks, r)
	}
	return out
}

// TakeoverFloor is the sequencer floor of slots rebuilt by a lease
// takeover at epoch: each epoch starts a fresh range of 2^40 SNs. A
// released lock leaves no client record to replay, yet its data server
// holds its SN; resuming above every earlier epoch's range keeps a new
// write from ordering below it. Sound while no resource takes 2^40
// write grants between two takeovers.
func TakeoverFloor(epoch uint64) extent.SN { return extent.SN(epoch) << 40 }

// Reset drops all lock state. It models the state loss of a server
// crash (the recovery tests crash and rebuild an engine in place) and
// must not be called while requests are in flight.
func (s *Server) Reset() {
	s.resMu.Lock()
	s.resources = make(map[ResourceID]*resource)
	s.snFloor = 0
	s.resMu.Unlock()
	s.reclaim.mu.Lock()
	s.reclaim.entries = nil
	s.reclaim.mu.Unlock()
}

// Restore installs lock state that moved to this engine and takes
// mastership of st.Slots at st.Epoch. Full-crash recovery, lease
// takeover and slot migration all end here, under one set of rules:
//
//   - Every slot must be in range, every record needs a valid mode and
//     a non-empty range, and every target resource must be empty (no granted lock, no queued
//     waiter): restoring onto live state is refused, not merged. A
//     refused state installs nothing and takes no slot.
//   - Delegation state is force-resolved, as a freeze does it. A
//     HandedOff record is dropped: its holder owes the lock to a
//     successor and will never release it through the server, so
//     restoring it would wedge the resource. A Delegated record becomes
//     a plain grant, and an activation sent once the state is serving
//     unparks a successor whose peer transfer died with the old master
//     (a duplicate is idempotent client-side).
//   - The sequencer resumes at the largest of NextSN, st.Floor and
//     every restored write SN + 1; the engine's floor rises to
//     st.Floor, so a resource nobody replayed starts above it too.
//   - The grant count is the larger of Grants and the locks installed.
//   - The lock-ID allocator rises above every restored ID, so later
//     grants never collide with one.
//
// Records are trusted beyond that: the previous master granted them, so
// they are mutually compatible. A granted lock is installed with its
// revocation flag cleared (an in-flight revocation died with the old
// master; the next conflict re-fires it, and clients treat the
// re-delivery as idempotent); a CANCELING lock keeps waiting for its
// release and is never revoked again.
func (s *Server) Restore(st LockState) error {
	var in [partition.NumSlots]bool
	for _, sl := range st.Slots {
		if sl < 0 || sl >= partition.NumSlots {
			return fmt.Errorf("dlm: restore: bad slot %d", sl)
		}
		in[sl] = true
	}
	var keep []ResourceState
	for _, re := range st.Resources {
		if st.Slots != nil && !in[partition.SlotOf(uint64(re.Resource))] {
			continue
		}
		for _, r := range re.Locks {
			if !r.Mode.Valid() {
				return fmt.Errorf("dlm: restore: invalid mode %v", r.Mode)
			}
			if r.Range.Empty() {
				return fmt.Errorf("dlm: restore: empty range for lock %d", r.LockID)
			}
		}
		if res := s.lookup(re.Resource); res != nil {
			res.mu.Lock()
			busy := res.granted.len() > 0 || len(res.queue) > 0
			res.mu.Unlock()
			if busy {
				return fmt.Errorf("dlm: restore: resource %d not empty", re.Resource)
			}
		}
		keep = append(keep, re)
	}
	s.resMu.Lock()
	s.snFloor = max(s.snFloor, st.Floor)
	s.resMu.Unlock()
	var acts []activationMsg
	for _, re := range keep {
		res := s.resource(re.Resource)
		res.mu.Lock()
		res.nextSN = max(res.nextSN, re.NextSN, st.Floor)
		n := 0
		for _, r := range re.Locks {
			if r.HandedOff {
				continue
			}
			if r.Delegated {
				r.State = Granted
				acts = append(acts, activationMsg{client: r.Client, res: re.Resource, id: r.LockID})
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
			// Raising by the gap read a moment ago may overshoot when
			// another raise or a grant lands in between; a skipped ID is
			// harmless.
			if cur := s.nextLock.Load(); uint64(r.LockID) > cur {
				s.nextLock.Add(uint64(r.LockID) - cur)
			}
			if r.Mode.IsWrite() && r.SN >= res.nextSN {
				res.nextSN = r.SN + 1
			}
			n++
		}
		res.grants = max(res.grants, int(re.Grants), n)
		res.mu.Unlock()
	}
	if st.Slots != nil {
		s.addSlots(st.Epoch, st.Slots)
	}
	for _, a := range acts {
		s.Stats.HandoffReclaims.Add(1)
		s.sendActivation(a)
	}
	return nil
}
