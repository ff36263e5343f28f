package dlm

import (
	"slices"
	"sync"
)

// DefaultRevokeWorkers caps how many revocation deliveries run
// concurrently: a wide conflict (one request revoking thousands of
// holders) must not mean thousands of simultaneous callback RPCs. The
// pool bounds that fan-out while the per-client coalescing keeps the
// RPC count low (DESIGN.md §9).
const DefaultRevokeWorkers = 8

// revClient is one destination client's delivery state. scheduled makes
// scheduling exactly-once: it is set when the client enters a lane's
// ready list and cleared only after a delivery found nothing more
// pending — so a client has at most one delivery in flight and sits in
// at most one ready list.
type revClient struct {
	id        ClientID
	pending   []Revocation // queued for the next delivery, in enqueue order
	scheduled bool
}

// revLane is one worker's lane: the clients it is to deliver to, in the
// order they were scheduled, and whether its worker goroutine is
// running. Workers spawn on demand; an idle engine holds no revoker
// goroutines.
type revLane struct {
	ready   []*revClient
	running bool
}

// revoker coalesces revocations per destination client and delivers
// them from a bounded, on-demand worker pool. mu guards all of it and is
// a leaf lock: enqueue takes it for a few appends and never blocks on
// delivery, and it is never held across a notifier call — so the grant
// engine can hand off revocations while a delivery's reply (RevokeAck →
// scan → fire) is re-entering the engine on another resource.
//
// Ordering: revocations for one client are delivered in enqueue order,
// and a client has at most one delivery in flight at a time (scheduled
// bars a second worker from claiming it; revocations arriving while a
// delivery runs ride the next batch), so per-client callbacks are
// serialized. Distinct clients spread round-robin over the lanes and
// deliver concurrently up to the pool bound.
type revoker struct {
	s *Server

	mu      sync.Mutex
	clients map[ClientID]*revClient // never removed from
	lanes   [DefaultRevokeWorkers]revLane
	next    uint64 // round-robin lane assignment
}

// enqueue hands one grant-scan's revocations to the delivery machinery:
// append each to its destination client's pending list and schedule
// every client that was idle, in order of first appearance — lane
// assignment is a shared round-robin counter, so that order must be
// stable for deterministic virtual runs.
func (r *revoker) enqueue(revs []Revocation) {
	r.s.Stats.RevokeQueue.Add(int64(len(revs)))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rv := range revs {
		rc := r.clients[rv.Client]
		if rc == nil {
			rc = &revClient{id: rv.Client}
			r.clients[rv.Client] = rc
		}
		rc.pending = append(rc.pending, rv)
		if !rc.scheduled {
			rc.scheduled = true
			r.schedule(rc)
		}
	}
}

// schedule assigns rc to a lane round-robin and makes sure the lane's
// worker is running. Caller holds r.mu and has set rc.scheduled.
func (r *revoker) schedule(rc *revClient) {
	r.next++
	ln := &r.lanes[r.next%uint64(len(r.lanes))]
	ln.ready = append(ln.ready, rc)
	if !ln.running {
		ln.running = true
		r.s.clk.Go(func() { r.work(ln) })
	}
}

// work delivers to one lane's ready clients, oldest first, until none
// are left, then retires. Each delivery takes everything pending for its
// client as one batch and runs outside r.mu; a client that collected
// more in the meantime is scheduled again.
func (r *revoker) work(ln *revLane) {
	r.mu.Lock()
	for len(ln.ready) > 0 {
		rc := ln.ready[0]
		ln.ready = slices.Delete(ln.ready, 0, 1)
		batch := rc.pending
		rc.pending = nil
		r.mu.Unlock()
		// The batch leaves the backlog the moment a worker claims it;
		// delivery time shows up in the notifier's RPC metrics instead.
		r.s.Stats.RevokeQueue.Add(-int64(len(batch)))
		r.s.Stats.RevokeBatches.Add(1)
		// The notifier's replies re-enter the engine (RevokeAck/Release →
		// scan → fire → enqueue); enqueue never blocks on delivery, so
		// this cannot deadlock.
		r.s.notifier.RevokeBatch(r.s.baseCtx, rc.id, batch)
		r.mu.Lock()
		if len(rc.pending) > 0 {
			r.schedule(rc)
		} else {
			rc.scheduled = false
		}
	}
	ln.running = false
	r.mu.Unlock()
}
