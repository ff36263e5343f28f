package rpc

import (
	"sync"
	"sync/atomic"

	"ccpfs/internal/obs"
	"ccpfs/internal/wire"
)

// defaultSampleInterval is the fraction of calls whose latency is
// clock-timed (1 in 16). Counting is always exact — every call bumps
// its per-method counter — but a monotonic clock read costs ~30ns and
// a round trip needs two, so timing every call would dominate the
// instrumentation's cost. Uniform sampling keeps the percentiles honest
// while the amortized clock cost drops below the counters'.
const defaultSampleInterval = 16

// Metrics instruments one or more endpoints: per-method call/handle
// counts (exact), per-method round-trip latency for outbound calls and
// service time for inbound handlers (sampled), in-flight gauges for
// both directions (derived from the endpoints' pending/active tables
// at snapshot time — zero fast-path cost), and frame bytes in/out. One
// Metrics is shared by all endpoints of a component (a client shares
// one across its per-server connections, a data server across its
// per-client connections) so the numbers aggregate naturally. All hot
// instruments are atomics reached through the raw wire.Method byte. A
// method's record (its two counters) is allocated on the method's first
// use and each of its latency histograms (half a kilobyte) on its first
// sample — a component speaks a handful of the 256 possible methods,
// and a simulated cluster builds one Metrics per client and per server
// — so recording is allocation-free after a method's first sample.
//
// Attach with Options.Metrics or Endpoint.SetMetrics before Start;
// a nil Metrics keeps every instrument point a single pointer check.
type Metrics struct {
	// BytesIn and BytesOut are touched by different goroutines (the
	// read loop vs. callers); the pads keep each on its own cache line.
	BytesIn  obs.Counter
	_        [56]byte
	BytesOut obs.Counter
	_        [56]byte

	// sampleMask selects which calls get clock-timed: those whose
	// per-method count satisfies count&sampleMask == 0. Written only
	// before traffic (SetSampleInterval), read without synchronization.
	sampleMask int64

	methods [256]atomic.Pointer[methodStats] // by method, allocated on first use

	// eps tracks the live endpoints this Metrics instruments, for the
	// snapshot-time in-flight derivation. Guarded by mu; endpoints
	// detach on teardown.
	mu  sync.Mutex
	eps map[*Endpoint]struct{}
}

// methodStats is one method's instruments.
type methodStats struct {
	calls     obs.Counter // outbound calls (exact)
	handles   obs.Counter // inbound handler runs (exact)
	callLat   lazyHist    // outbound round-trip ns (sampled)
	handleLat lazyHist    // inbound handler service ns (sampled)
}

// method returns method's record, allocating it if this is the first use.
func (m *Metrics) method(method wire.Method) *methodStats {
	p := &m.methods[method]
	if s := p.Load(); s != nil {
		return s
	}
	p.CompareAndSwap(nil, new(methodStats))
	return p.Load()
}

// lazyHist is a histogram allocated on first use.
type lazyHist struct{ p atomic.Pointer[obs.Histogram] }

// get returns the histogram, allocating it if this is the first use.
func (l *lazyHist) get() *obs.Histogram {
	if h := l.p.Load(); h != nil {
		return h
	}
	l.p.CompareAndSwap(nil, new(obs.Histogram))
	return l.p.Load()
}

// Record adds one observation.
func (l *lazyHist) Record(v int64) { l.get().Record(v) }

// NewMetrics returns an instrument set with the default latency
// sampling interval.
func NewMetrics() *Metrics {
	return &Metrics{
		sampleMask: defaultSampleInterval - 1,
		eps:        map[*Endpoint]struct{}{},
	}
}

// SetSampleInterval sets how often call/handle latencies are
// clock-timed: every n-th operation per method. n must be a power of
// two; 1 times every operation (tests use this for determinism).
// Call before the endpoints see traffic.
func (m *Metrics) SetSampleInterval(n int) {
	if n < 1 || n&(n-1) != 0 {
		panic("rpc: sample interval must be a power of two >= 1")
	}
	m.sampleMask = int64(n - 1)
}

func (m *Metrics) attach(ep *Endpoint) {
	m.mu.Lock()
	m.eps[ep] = struct{}{}
	m.mu.Unlock()
}

func (m *Metrics) detach(ep *Endpoint) {
	m.mu.Lock()
	delete(m.eps, ep)
	m.mu.Unlock()
}

// InFlight returns the instantaneous number of outbound calls awaiting
// replies and inbound handlers running, summed over the attached
// endpoints' pending/active tables. The endpoints already maintain
// those tables for call matching and cancellation, so in-flight
// tracking costs the fast path nothing.
func (m *Metrics) InFlight() (out, in int) {
	m.mu.Lock()
	eps := make([]*Endpoint, 0, len(m.eps))
	for ep := range m.eps {
		eps = append(eps, ep)
	}
	m.mu.Unlock()
	for _, ep := range eps {
		out += ep.pending.length()
		in += ep.active.length()
	}
	return out, in
}

// Calls returns the exact number of outbound calls issued for method.
func (m *Metrics) Calls(method wire.Method) int64 { return m.method(method).calls.Load() }

// Handles returns the exact number of inbound handler runs for method,
// counted as each run completes (after its reply frame is sent).
func (m *Metrics) Handles(method wire.Method) int64 { return m.method(method).handles.Load() }

// CallHist returns the outbound round-trip histogram for method. Its
// count is the number of sampled observations, not the call count —
// see Calls.
func (m *Metrics) CallHist(method wire.Method) *obs.Histogram {
	return m.method(method).callLat.get()
}

// HandleHist returns the inbound service-time histogram for method.
func (m *Metrics) HandleHist(method wire.Method) *obs.Histogram {
	return m.method(method).handleLat.get()
}

// Collect implements obs.Collector: scalar instruments accumulate (so
// several Metrics can feed one registry) and only methods that saw
// traffic contribute, as rpc.calls.<Method> / rpc.handles.<Method>
// counters and rpc.call.<Method> / rpc.handle.<Method> latency
// histograms.
func (m *Metrics) Collect(s *obs.Snapshot) {
	out, in := m.InFlight()
	s.Gauges["rpc.inflight_out"] += int64(out)
	s.Gauges["rpc.inflight_in"] += int64(in)
	s.Counters["rpc.bytes_in"] += m.BytesIn.Load()
	s.Counters["rpc.bytes_out"] += m.BytesOut.Load()
	for i := range m.methods {
		ms := m.methods[i].Load()
		if ms == nil {
			continue
		}
		if n := ms.calls.Load(); n > 0 {
			s.Counters["rpc.calls."+wire.Method(i).String()] += n
		}
		if n := ms.handles.Load(); n > 0 {
			s.Counters["rpc.handles."+wire.Method(i).String()] += n
		}
		if lat := ms.callLat.p.Load(); lat != nil && lat.Count() > 0 {
			name := "rpc.call." + wire.Method(i).String()
			h := s.Histograms[name]
			h.Merge(lat.Snapshot())
			s.Histograms[name] = h
		}
		if lat := ms.handleLat.p.Load(); lat != nil && lat.Count() > 0 {
			name := "rpc.handle." + wire.Method(i).String()
			h := s.Histograms[name]
			h.Merge(lat.Snapshot())
			s.Histograms[name] = h
		}
	}
}
