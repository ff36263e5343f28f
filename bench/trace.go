package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"ccpfs/internal/sim"
)

// span is one call the harness made into a layer (or one phase of a
// rep, when parent is the rep span). Both clocks are recorded: the
// simulated one says what the modelled cluster spent, the host one what
// this machine spent computing it.
type span struct {
	Name               string
	Parent             int // index into tracer.spans, -1 for a rep root
	Rank, Op           int
	SimStart, SimEnd   int64 // ns on the rep's virtual clock
	HostStart, HostEnd int64 // ns since tracer.t0
}

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer is the untraced run: every method is a no-op, so
// end-to-end metrics never pay for tracing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func simNs(clk sim.Clock) int64 {
	if v := clk.V(); v != nil {
		return v.Now().UnixNano()
	}
	return 0
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(clk sim.Clock, name string, parent, rank, op int) int {
	if t == nil {
		return -1
	}
	sp := span{Name: name, Parent: parent, Rank: rank, Op: op,
		SimStart: simNs(clk), HostStart: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(clk sim.Clock, id int) {
	if t == nil {
		return
	}
	s, h := simNs(clk), int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].SimEnd, t.spans[id].HostEnd = s, h
	t.mu.Unlock()
}

// hostDur returns the host duration of span id.
func (t *tracer) hostDur(id int) time.Duration {
	return time.Duration(t.spans[id].HostEnd - t.spans[id].HostStart)
}

// selfTime is a span's host duration minus the part of that interval
// its direct children cover (children of concurrent ranks overlap, so
// the cover is a union of intervals, not a sum).
func (t *tracer) selfTime(id int) time.Duration {
	p := t.spans[id]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, iv{s.HostStart, s.HostEnd})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var covered, end int64
	end = p.HostStart
	for _, k := range kids {
		if k.b <= end {
			continue
		}
		if k.a < end {
			k.a = end
		}
		covered += k.b - k.a
		end = k.b
	}
	return time.Duration(p.HostEnd - p.HostStart - covered)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and Perfetto load a file of these.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans twice — process 0 on the simulated
// timeline, process 1 on the host timeline, one thread per rank — plus
// the counter deltas of the traced rep as metadata.
func (t *tracer) writeChrome(path string, counters map[string]float64) error {
	var simBase int64
	if len(t.spans) > 0 {
		simBase = t.spans[0].SimStart
	}
	events := make([]chromeEvent, 0, 2*len(t.spans))
	for id, s := range t.spans {
		args := map[string]any{"id": id, "parent": s.Parent, "op": s.Op}
		events = append(events,
			chromeEvent{Name: s.Name, Ph: "X", Pid: 0, Tid: s.Rank + 1, Args: args,
				Ts: float64(s.SimStart-simBase) / 1e3, Dur: float64(s.SimEnd-s.SimStart) / 1e3},
			chromeEvent{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Rank + 1, Args: args,
				Ts: float64(s.HostStart) / 1e3, Dur: float64(s.HostEnd-s.HostStart) / 1e3})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"pid0": "simulated time", "pid1": "host time", "counters": counters},
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
