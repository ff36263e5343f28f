package dlm

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ccpfs/internal/extent"
	"ccpfs/internal/sim"
)

// EventKind labels a protocol event recorded by the Tracer.
type EventKind uint8

// Protocol events.
const (
	EvRequest EventKind = iota
	EvGrant
	EvEarlyRevocation
	EvRevokeSent
	EvRevokeAck
	EvDowngrade
	EvRelease
	EvUpgrade
	// EvAckSolicit: a waiter (Client, Mode, Range) is blocked by lock
	// Lock, which only the confirmation of delegated lock Succ, owned
	// by SuccClient, retires; the server asked SuccClient for it.
	EvAckSolicit
	// EvDelegAck: the owner of delegated lock Lock confirmed the
	// delegation; the lock stays held, by its new owner.
	EvDelegAck
)

func (k EventKind) String() string {
	switch k {
	case EvRequest:
		return "request"
	case EvGrant:
		return "grant"
	case EvEarlyRevocation:
		return "early-revocation"
	case EvRevokeSent:
		return "revoke-sent"
	case EvRevokeAck:
		return "revoke-ack"
	case EvDowngrade:
		return "downgrade"
	case EvRelease:
		return "release"
	case EvUpgrade:
		return "upgrade"
	case EvAckSolicit:
		return "ack-solicit"
	case EvDelegAck:
		return "deleg-ack"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one recorded protocol step.
type Event struct {
	At       time.Time
	Kind     EventKind
	Resource ResourceID
	Client   ClientID
	Lock     LockID
	Mode     Mode
	Range    extent.Extent
	SN       extent.SN
	// Succ and SuccClient are set on EvAckSolicit only: the delegated
	// lock whose confirmation was solicited, and its owner.
	Succ       LockID
	SuccClient ClientID
}

func (e Event) String() string {
	if e.Kind == EvAckSolicit {
		return fmt.Sprintf("%s res=%d waiter=%d %v %v blocked-by=%d solicited=%d@client%d",
			e.Kind, e.Resource, e.Client, e.Mode, e.Range, e.Lock, e.Succ, e.SuccClient)
	}
	return fmt.Sprintf("%s res=%d client=%d lock=%d %v %v sn=%d",
		e.Kind, e.Resource, e.Client, e.Lock, e.Mode, e.Range, e.SN)
}

// Tracer is a bounded ring buffer of protocol events, attachable to a
// Server for debugging and for asserting protocol sequences in tests.
// It is safe for concurrent use. A nil *Tracer is a no-op.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	total int
	clk   sim.Clock
}

// NewTracer returns a tracer keeping the last n events (n >= 1).
func NewTracer(n int) *Tracer {
	if n < 1 {
		n = 1
	}
	return &Tracer{ring: make([]Event, n)}
}

func (t *Tracer) record(ev Event) {
	if t == nil {
		return
	}
	ev.At = t.clk.Now()
	t.mu.Lock()
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	t.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	if n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]Event, 0, n)
	start := (t.next - n + len(t.ring)) % len(t.ring)
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Total returns how many events were recorded (including evicted ones).
func (t *Tracer) Total() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dump renders the buffered events one per line.
func (t *Tracer) Dump() string {
	evs := t.Events()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Kinds returns just the event kinds in order, convenient for sequence
// assertions.
func (t *Tracer) Kinds() []EventKind {
	evs := t.Events()
	out := make([]EventKind, len(evs))
	for i, e := range evs {
		out[i] = e.Kind
	}
	return out
}

// SetTracer attaches a tracer to the server (nil detaches). Attach
// before traffic; the pointer is read without synchronization on hot
// paths.
func (s *Server) SetTracer(t *Tracer) {
	if t != nil {
		t.clk = s.clk
	}
	s.tracer = t
}
