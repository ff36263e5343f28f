package dlm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ccpfs/internal/extent"
	"ccpfs/internal/partition"
)

// This file implements the server-recovery half of §IV-C2: "the server
// recovers lock states by gathering them from all clients". Clients
// export their held locks as LockRecords; a recovering server restores
// them wholesale, re-seeding each resource's sequencer and the lock-ID
// allocator above everything it has seen. (The other half — extent-log
// replay — lives in package extcache; flush-RPC redo is the client
// cache's redirty-on-error behaviour.)

// LockRecord is the wire-friendly description of one granted lock, as a
// client reports it during server recovery.
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
	// only the server's promise of one. A taking-over master
	// force-resolves it (AdoptSlots) the way a freeze would.
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
		if filter != nil && !filter(k.res) {
			continue
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

// resolveReplay force-resolves the delegation state carried in
// client-replayed records, mirroring what FreezeExportSlot does for
// migration. HandedOff records are dropped: the holder owes the lock to
// a successor and will never release it through the server, so
// restoring it would wedge the resource forever. Delegated records —
// the successor's promised lock — become plain grants; the returned
// activations must be delivered once the restored state is serving, so
// a successor whose peer transfer died with the old master is unparked
// (duplicates are idempotent client-side).
func resolveReplay(records []LockRecord) (kept []LockRecord, acts []activationMsg) {
	kept = records[:0]
	for _, r := range records {
		if r.HandedOff {
			continue
		}
		if r.Delegated {
			r.Delegated = false
			r.State = Granted
			acts = append(acts, activationMsg{client: r.Client, res: r.Resource, id: r.LockID})
		}
		kept = append(kept, r)
	}
	return kept, acts
}

// RestoreReplay is Restore for client-replayed records after a full
// crash: delegation state is force-resolved (see resolveReplay) and the
// corresponding activations sent once the records are installed.
func (s *Server) RestoreReplay(records []LockRecord) error {
	kept, acts := resolveReplay(records)
	if err := s.Restore(kept); err != nil {
		return err
	}
	for _, a := range acts {
		s.Stats.HandoffReclaims.Add(1)
		s.sendActivation(a)
	}
	return nil
}

// Reset drops all lock state. It models the state loss of a server
// crash (the recovery tests crash and rebuild an engine in place) and
// must not be called while requests are in flight.
func (s *Server) Reset() {
	s.resMu.Lock()
	s.resources = make(map[ResourceID]*resource)
	s.resMu.Unlock()
}

// Restore reinstalls client-reported locks into a fresh engine. Records
// are trusted (they were granted by the pre-crash server, so they are
// mutually compatible); each resource's sequencer resumes above the
// largest restored SN and the lock-ID allocator above the largest
// restored ID, so post-recovery grants can never collide with or order
// below pre-crash ones. Restoring onto a non-empty resource fails.
func (s *Server) Restore(records []LockRecord) error {
	// Stable order keeps restoration deterministic for tests/logs.
	sort.Slice(records, func(i, j int) bool {
		if records[i].Resource != records[j].Resource {
			return records[i].Resource < records[j].Resource
		}
		return records[i].LockID < records[j].LockID
	})
	for _, r := range records {
		if !r.Mode.Valid() {
			return fmt.Errorf("dlm: restore: invalid mode %v", r.Mode)
		}
		if r.Range.Empty() {
			return fmt.Errorf("dlm: restore: empty range for lock %d", r.LockID)
		}
		res := s.resource(r.Resource)
		res.mu.Lock()
		if len(res.queue) > 0 {
			res.mu.Unlock()
			return fmt.Errorf("dlm: restore: resource %d has queued requests", r.Resource)
		}
		s.installRecord(res, r)
		res.grants++
		if r.Mode.IsWrite() && r.SN >= res.nextSN {
			res.nextSN = r.SN + 1
		}
		res.mu.Unlock()
	}
	return nil
}

// installRecord puts a lock granted before — by this engine before a
// crash, or by the slot's previous master — into res's granted set as
// it was, and raises the lock-ID allocator to at least its ID, so later
// grants never collide with it. A CANCELING lock keeps waiting for its
// release and is never revoked again. Called with res.mu held.
func (s *Server) installRecord(res *resource, r LockRecord) {
	res.granted.insert(&lock{
		id:         r.LockID,
		client:     r.Client,
		mode:       r.Mode,
		rng:        r.Range,
		state:      r.State,
		sn:         r.SN,
		revokeSent: r.State == Canceling,
	})
	// Raising by the gap read a moment ago may overshoot when another
	// raise or a grant lands in between; a skipped ID is harmless.
	if cur := s.nextLock.Load(); uint64(r.LockID) > cur {
		s.nextLock.Add(uint64(r.LockID) - cur)
	}
}
