package dlm

import "sync"

// revClient is one destination client's delivery state and, while
// scheduled, its delivery coroutine (a sim.Task, so starting one takes no
// closure). scheduled makes scheduling exactly-once: it is set when
// enqueue starts the client's delivery and cleared only after that
// delivery found nothing more pending — so a client has at most one
// delivery in flight. pending and spare trade backing arrays at each
// delivery, so a client in steady state queues without allocating. The
// array of a batch of more than keepBatch entries is dropped instead, so
// a release storm does not pin its array for the server's life.
type revClient struct {
	r         *revoker
	id        ClientID
	pending   []Revocation // queued for the next delivery, in enqueue order
	spare     []Revocation // the last delivered batch's array, cleared
	scheduled bool
}

// keepBatch is the largest batch whose array a client keeps for reuse,
// the revoker's memory bound: a client's steady batches are far smaller
// (one entry in every benchmark workload), and a larger one is a storm
// whose array is not worth pinning.
const keepBatch = 512

// revoker coalesces revocations per destination client and delivers to
// every client with revocations pending at once, one delivery coroutine
// per client. mu guards all of it and is a leaf lock: enqueue takes it
// for a few appends and never blocks on delivery, and it is never held
// across a notifier call — so the grant engine can hand off revocations
// while a delivery's reply (RevokeAck → scan → fire) is re-entering the
// engine on another resource.
//
// Ordering: revocations for one client are delivered in enqueue order,
// and a client has at most one delivery in flight at a time (scheduled
// bars a second coroutine; revocations arriving while a delivery runs
// ride the next batch), so per-client callbacks are serialized. No bound
// caps how many clients deliver at once: that number is already bounded
// by the clients holding conflicting locks, each of which holds a server
// connection with its own read loop, and a bound below it turns one
// gather into several round trips (DESIGN.md §9).
type revoker struct {
	s *Server

	mu      sync.Mutex
	clients map[ClientID]*revClient // never removed from
}

// enqueue hands one grant-scan's revocations to the delivery machinery:
// append each to its destination client's pending list and start the
// delivery of every client that was idle, in order of first appearance
// (spawn order is timing-visible in a virtual run).
func (r *revoker) enqueue(revs []Revocation) {
	r.s.Stats.RevokeQueue.Add(int64(len(revs)))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rv := range revs {
		rc := r.clients[rv.Client]
		if rc == nil {
			rc = &revClient{r: r, id: rv.Client}
			r.clients[rv.Client] = rc
		}
		rc.pending = append(rc.pending, rv)
		if !rc.scheduled {
			rc.scheduled = true
			r.s.clk.GoTask(rc)
		}
	}
}

// Run is the client's delivery coroutine: it takes everything pending as
// one batch and delivers it outside r.mu, until a delivery finds nothing
// more pending.
func (rc *revClient) Run() {
	r := rc.r
	r.mu.Lock()
	for len(rc.pending) > 0 {
		batch := rc.pending
		rc.pending, rc.spare = rc.spare, nil
		r.mu.Unlock()
		// The batch leaves the backlog the moment its delivery starts;
		// delivery time shows up in the notifier's RPC metrics instead.
		r.s.Stats.RevokeQueue.Add(-int64(len(batch)))
		r.s.Stats.RevokeBatches.Add(1)
		// The notifier's replies re-enter the engine (RevokeAck/Release →
		// scan → fire → enqueue); enqueue never blocks on delivery, so
		// this cannot deadlock.
		r.s.notifier.RevokeBatch(r.s.baseCtx, rc.id, batch)
		clear(batch)
		r.mu.Lock()
		if len(batch) <= keepBatch {
			rc.spare = batch[:0]
		}
	}
	rc.scheduled = false
	r.mu.Unlock()
}
