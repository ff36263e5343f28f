package sim

import (
	"context"
	"sync"
	"time"
)

// Window is n tokens shared by the flows that use one resource at once
// (a client's flush window of one data server: a token per flush RPC in
// flight there), and a FIFO of tasks waiting for a token. A flow that
// is running takes its token with Take, parking while none is free. A
// task that has not started is handed to Start instead: it starts at
// once holding a free token, or waits in the queue with no coroutine,
// and a returned token starts the oldest queued task, token in hand,
// ahead of the flows parked in Take. A task's place in the queue is the
// Entry embedded in its own record, so queueing allocates nothing.
type Window struct {
	clk    Clock
	tokens chan struct{}

	mu         sync.Mutex
	head, tail *Entry // the queued tasks, oldest first
	closed     bool   // Close ran: Start no longer queues
}

// Entry is a task's place in a Window's queue. Embed it in the record
// the task runs on and set Task before Start.
type Entry struct {
	Task Task
	// Since is when Start took the task, once the task runs holding a
	// token; zero when it runs holding none (the window was closed). The
	// task gives its token back with Put, or lets a flow that spends it
	// do so.
	Since time.Time
	next  *Entry
}

// NewWindow returns a window of n tokens on clk.
func NewWindow(clk Clock, n int) *Window {
	w := &Window{clk: clk, tokens: make(chan struct{}, n)}
	for range n {
		w.tokens <- struct{}{}
	}
	return w
}

// Cap returns the window's number of tokens.
func (w *Window) Cap() int { return cap(w.tokens) }

// Free returns the number of tokens nobody holds.
func (w *Window) Free() int { return len(w.tokens) }

// Take takes a token, waiting for one unless ctx fires first (ctx's
// error). Put gives it back.
func (w *Window) Take(ctx context.Context) error {
	_, _, err := Recv(ctx, w.clk, w.tokens, nil, time.Time{})
	return err
}

// Put gives a token back: to the oldest queued task, which starts
// holding it, or else to the window, where the first flow parked in
// Take wakes with it.
func (w *Window) Put() {
	w.mu.Lock()
	e := w.head
	if e == nil {
		Send(w.clk, w.tokens, struct{}{})
	} else if w.head = e.next; w.head == nil {
		w.tail = nil
	}
	w.mu.Unlock()
	if e != nil {
		e.next = nil
		w.clk.GoTask(e.Task)
	}
}

// Start starts e's task holding a token: at once if one is free, else
// once Put hands it one, waiting in the queue until then. On a closed
// window it starts at once, holding none.
func (w *Window) Start(e *Entry) {
	e.Since = w.clk.Now()
	w.mu.Lock()
	select {
	case <-w.tokens:
	default:
		if !w.closed {
			if w.tail == nil {
				w.head = e
			} else {
				w.tail.next = e
			}
			w.tail = e
			w.mu.Unlock()
			return
		}
		e.Since = time.Time{}
	}
	w.mu.Unlock()
	w.clk.GoTask(e.Task)
}

// Close starts every queued task holding no token, and Start starts
// later ones at once, holding none: the flows the window serves are
// shutting down, and a task must not wait for a token none of them may
// give back.
func (w *Window) Close() {
	w.mu.Lock()
	e := w.head
	w.head, w.tail, w.closed = nil, nil, true
	w.mu.Unlock()
	for e != nil {
		next := e.next
		e.next, e.Since = nil, time.Time{}
		w.clk.GoTask(e.Task)
		e = next
	}
}
