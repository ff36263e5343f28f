// Package rpc provides a bidirectional request/response protocol on top
// of a transport.Conn. Both ends of a connection can originate calls:
// ccPFS clients call lock and IO methods on servers, and lock servers
// call revocation callbacks back into clients over the same connection —
// mirroring how the paper's prototype uses CaRT's client/server RPC in
// both directions.
//
// Inbound requests are dispatched each in its own goroutine, so a lock
// request that blocks inside the server (waiting for conflict resolution)
// never stalls an unrelated message on the same connection.
//
// Every call carries a context: cancellation or deadline expiry unblocks
// the waiter promptly, deregisters the pending-call entry (a late reply
// is dropped as stale), and surfaces as a typed wire error
// (wire.ErrTimeout / wire.ErrCanceled). An abandoned call additionally
// sends a best-effort cancel frame so the peer withdraws the server-side
// work (e.g. a queued lock waiter). Handlers receive a per-call context
// that is canceled by that frame and by connection teardown, so
// server-side work aborts instead of running headless.
package rpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccpfs/internal/obs"
	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// Handler serves one method. It receives a per-call context — canceled
// when the caller abandons the call or the connection closes — and the
// request payload, and returns the reply message. Returning an error
// sends a typed wire.Error back to the caller instead.
//
// The context dies with the handler: nothing may keep it, or call any
// of its methods, after the handler returns — not a goroutine the
// handler started, not a record it filed away. Its record is recycled
// for a later request (see callCtx), and in that request it is a
// different call's context.
type Handler func(ctx context.Context, payload []byte) (wire.Msg, error)

const (
	kindRequest  = 0
	kindResponse = 1
	kindCancel   = 2

	statusOK  = 0
	statusErr = 1

	headerLen = wire.HeadRoom // kind, id, method, status
)

// Endpoint is one end of an RPC connection.
type Endpoint struct {
	conn     transport.Conn
	clk      sim.Clock
	handlers map[wire.Method]Handler
	// metrics, when non-nil, instruments this endpoint (see Metrics).
	// Written only before Start, so the read loop and callers see a
	// stable pointer without synchronization.
	metrics *Metrics

	// baseCtx is the endpoint's lifecycle: handlers run under it and it
	// is canceled when the read loop exits, aborting abandoned work.
	baseCtx context.Context
	cancel  context.CancelFunc

	nextID atomic.Uint64
	// pending (outbound calls awaiting replies) and active (inbound
	// requests, for cancel frames) are the endpoint's call tables
	// (pending.go).
	pending   callTable[chan response]
	active    callTable[*callCtx]
	onClose   func(*Endpoint)
	startOnce sync.Once

	// inflight counts dispatched handler goroutines for Drain; idle is
	// broadcast, under drainMu, when the count falls to zero.
	inflight atomic.Int64
	drainMu  sync.Mutex
	idle     *sim.Cond

	// Tag carries endpoint-scoped state for handlers, e.g. the client
	// session a server associates with this connection.
	Tag atomic.Value
}

// response is what complete hands the waiting caller: the whole pooled
// response frame (the reply payload follows its header) or an error.
// The receiver owns the frame and disposes of it in decodeReply.
type response struct {
	frame []byte
	err   error
}

// decodeReply decodes a received response into reply (nil discards the
// payload) and disposes of the frame: back to the pool once decoded,
// unless the reply's fields alias it (wire.FrameHolder) — then the
// reply holds the frame until its owner releases it.
func decodeReply(resp response, reply wire.Msg) error {
	if resp.err != nil {
		return resp.err
	}
	if reply == nil {
		wire.PutBuf(resp.frame)
		return nil
	}
	err := wire.UnmarshalMsg(resp.frame[headerLen:], reply)
	if h, ok := reply.(wire.FrameHolder); ok {
		h.HoldFrame(resp.frame)
	} else {
		wire.PutBuf(resp.frame)
	}
	if err != nil {
		return fmt.Errorf("rpc: decoding %T reply: %w", reply, err)
	}
	return nil
}

// chanPool recycles the single-slot reply channels Wait blocks on.
// Recycling is safe only on paths where Wait has RECEIVED from the
// channel: the pending-table entry is taken by exactly one of
// complete/forget/shutdown-drain before sending, so each registered
// channel sees at most one send, and a receive proves that
// send already happened. On the abandon paths (context fired with no
// reply yet, send failure) a late sender may still hold the channel, so
// it is leaked to the GC instead — pooling it would let a stale reply
// surface on an unrelated call.
var chanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// Options configure an endpoint.
type Options struct {
	// OnClose runs once when the endpoint's read loop exits.
	OnClose func(*Endpoint)
	// Metrics, when non-nil, instruments every endpoint built with these
	// options. Safe to share across endpoints (all fields are atomic).
	Metrics *Metrics
	// Clock is the endpoint's time source. Virtual clocks serialize the
	// read loop, handlers, and reply waits deterministically; the zero
	// value is ordinary wall-clock execution.
	Clock sim.Clock
}

// NewEndpoint wraps conn. Register handlers with Handle, then call Start
// to begin serving. Handle must not be called after Start.
func NewEndpoint(conn transport.Conn, opts Options) *Endpoint {
	ctx, cancel := context.WithCancel(context.Background())
	ep := &Endpoint{
		conn:     conn,
		clk:      opts.Clock,
		handlers: make(map[wire.Method]Handler),
		baseCtx:  ctx,
		cancel:   cancel,
		onClose:  opts.OnClose,
		metrics:  opts.Metrics,
	}
	ep.idle = sim.NewCond(ep.clk, &ep.drainMu)
	if ep.metrics != nil {
		ep.metrics.attach(ep)
	}
	return ep
}

// Handle registers a handler for method.
func (ep *Endpoint) Handle(method wire.Method, h Handler) {
	ep.handlers[method] = h
}

// SetMetrics attaches an instrument set. Like Handle, it must be
// called before Start.
func (ep *Endpoint) SetMetrics(m *Metrics) {
	ep.metrics = m
	m.attach(ep)
}

// Start launches the read loop. It is idempotent: extra calls are
// no-ops, so a setup callback and its server can both call it safely
// without racing two read loops on one connection.
func (ep *Endpoint) Start() {
	ep.startOnce.Do(func() { ep.clk.Go(ep.readLoop) })
}

// Close tears down the connection; in-flight calls fail with ErrClosed.
func (ep *Endpoint) Close() error { return ep.conn.Close() }

// Pending returns the number of registered in-flight outbound calls
// (tests and introspection: a canceled call must not leave an entry).
func (ep *Endpoint) Pending() int {
	return ep.pending.length()
}

// Drain blocks until every dispatched inbound handler has completed, or
// ctx fires. It does not stop new requests from arriving; callers stop
// admission first (close the listener, set a draining flag), then drain.
func (ep *Endpoint) Drain(ctx context.Context) error {
	ep.drainMu.Lock()
	defer ep.drainMu.Unlock()
	for ep.inflight.Load() > 0 {
		if err := ctx.Err(); err != nil {
			return wire.FromContext(err)
		}
		ep.idle.Wait(ctx, time.Time{})
	}
	return nil
}

// handlerStart/handlerDone bracket a dispatched handler for Drain. The
// count itself is atomic; only its fall to zero takes drainMu, which a
// Drain holds from its test of the count until it waits.
func (ep *Endpoint) handlerStart() { ep.inflight.Add(1) }

func (ep *Endpoint) handlerDone() {
	if ep.inflight.Add(-1) == 0 {
		ep.drainMu.Lock()
		ep.idle.Broadcast()
		ep.drainMu.Unlock()
	}
}

// Call sends a request and blocks until the reply arrives, ctx fires, or
// the connection closes, decoding the reply into reply (which may be nil
// to discard the payload). A fired context returns wire.ErrTimeout or
// wire.ErrCanceled and guarantees the pending-call entry is gone; the
// eventual late reply, if any, is dropped as stale. A request built in
// place (wire.Body) gives its frame to the transport when it is sent;
// one that was not sent still holds it when Call returns. Call is Go and
// Wait back to back.
func (ep *Endpoint) Call(ctx context.Context, method wire.Method, req wire.Msg, reply wire.Msg) error {
	p, err := ep.Go(ctx, method, req)
	if err != nil {
		return err
	}
	return p.Wait(ctx, reply)
}

// Pending is a call whose request is sent and whose reply is not yet
// waited for. It is a value: starting and waiting for a call allocates
// nothing Call does not.
type Pending struct {
	ep     *Endpoint
	ch     chan response
	id     uint64
	start  int64 // obs.Now() at the send, when the call is timed
	method wire.Method
	timed  bool
}

// Go is the send half of Call: it sends the request and returns without
// waiting for the reply, so the caller can do other work while the call
// is on the wire. The caller must Wait on the result exactly once; until
// then the call holds its pending-call entry. An error means nothing is
// pending (the request was not sent, or its send failed).
func (ep *Endpoint) Go(ctx context.Context, method wire.Method, req wire.Msg) (Pending, error) {
	if err := ctx.Err(); err != nil {
		return Pending{}, wire.FromContext(err)
	}
	p := Pending{ep: ep, id: ep.nextID.Add(1), method: method}
	if m := ep.metrics; m != nil {
		// Straight-line instrumentation. The sampling decision is a plain
		// load — the count itself is bumped below, after the request
		// frame is on the wire, where the atomic overlaps with the server
		// working. Every sampleMask+1-th call per method — starting with
		// the first, so a lightly used method still shows a latency —
		// also pays two monotonic clock reads and a histogram record.
		if ms := m.method(method); (ms.calls.Load()+1)&m.sampleMask == 1&m.sampleMask {
			p.timed, p.start = true, obs.Now()
		}
	}
	p.ch = chanPool.Get().(chan response)
	if !ep.pending.register(p.id, p.ch) {
		chanPool.Put(p.ch)
		return Pending{}, p.done(transport.ErrClosed)
	}

	sendErr := ep.send(ctx, kindRequest, p.id, method, statusOK, req)
	if m := ep.metrics; m != nil {
		// Counts attempts (send failures included).
		m.method(method).calls.Inc()
	}
	if sendErr != nil {
		// The send failed: deregister so the pending map cannot grow
		// unboundedly under a flaky transport. The entry may already be
		// gone if shutdown raced us (and a sender may then still hold
		// the channel, so it is not recycled). Delete is idempotent.
		ep.forget(p.id)
		return Pending{}, p.done(sendErr)
	}
	return p, nil
}

// Wait is the wait half of Call: it blocks until the reply to p arrives,
// ctx fires, or the connection closes, and decodes the reply into reply
// as Call does. A ctx that fired before Wait was called still finds a
// reply that has already arrived; otherwise the call is abandoned as
// Call abandons it, with a cancel frame to the peer.
func (p Pending) Wait(ctx context.Context, reply wire.Msg) error {
	resp, err := p.ep.waitReply(ctx, p.id, p.method, p.ch)
	if err == nil {
		err = decodeReply(resp, reply)
	}
	return p.done(err)
}

// done records a timed call's latency and passes err through.
func (p *Pending) done(err error) error {
	if p.timed {
		p.ep.metrics.method(p.method).callLat.Record(obs.Now() - p.start)
	}
	return err
}

// waitReply waits for the reply to call id on its channel ch, which
// complete (or the shutdown drain) sends on. When ctx fires first, the
// pending entry is forgotten and the call is abandoned with ctx's error,
// unless the reply raced the cancellation: then the call did complete,
// and the reply wins.
func (ep *Endpoint) waitReply(ctx context.Context, id uint64, method wire.Method, ch chan response) (response, error) {
	resp, _, err := sim.Recv(ctx, ep.clk, ch, nil, time.Time{})
	if err != nil {
		ep.forget(id)
		select {
		case resp = <-ch:
		default:
			// Abandoned for good: tell the peer so it withdraws the
			// server-side work (a queued lock waiter, a stalled flush).
			// Best effort under the endpoint's lifecycle context — if the
			// frame is lost to teardown, teardown cancels the handler
			// anyway. The channel is NOT recycled: complete may have
			// claimed it before forget and be about to send.
			ep.clk.Go(func() { ep.send(ep.baseCtx, kindCancel, id, method, statusOK, nil) })
			return response{}, wire.FromContext(err)
		}
	}
	chanPool.Put(ch)
	return resp, nil
}

// forget deregisters a pending call entry. A miss is normal: complete
// or the shutdown drain may have claimed the entry first (and then owns
// the reply channel).
func (ep *Endpoint) forget(id uint64) {
	ep.pending.take(id)
}

// encodeFrame builds one frame, which the caller hands to the transport
// (which takes it). A message built in place (wire.Body) already is its
// frame: the header goes into its room and the frame changes hands
// without a copy, leaving the Body empty. Any other message is encoded
// into a pooled frame; a bulk one says how large it is (wire.Sizer), so
// its frame comes from the size class that fits and the payload is
// copied into it exactly once, and every other message fits the
// smallest class.
func encodeFrame(kind byte, id uint64, method wire.Method, status byte, m wire.Msg) []byte {
	var frame []byte
	if b, ok := m.(*wire.Body); ok {
		frame, b.Frame = b.Frame, nil
	} else {
		size := 64
		if s, ok := m.(wire.Sizer); ok {
			size = s.EncodedSize()
		}
		enc := wire.BodyEncoder(size)
		if m != nil {
			m.Encode(enc)
		}
		frame = wire.TakeFrame(enc)
	}
	putHeader(frame, kind, id, method, status)
	return frame
}

// putHeader writes the rpc header into a frame's first headerLen bytes.
func putHeader(frame []byte, kind byte, id uint64, method wire.Method, status byte) {
	frame[0] = kind
	binary.LittleEndian.PutUint64(frame[1:9], id)
	frame[9] = byte(method)
	frame[10] = status
}

func (ep *Endpoint) send(ctx context.Context, kind byte, id uint64, method wire.Method, status byte, m wire.Msg) error {
	return ep.sendFrame(ctx, encodeFrame(kind, id, method, status, m))
}

func (ep *Endpoint) sendErr(ctx context.Context, id uint64, method wire.Method, err error) error {
	enc := wire.BodyEncoder(len(err.Error()) + 1)
	wire.EncodeError(enc, err)
	frame := wire.TakeFrame(enc)
	putHeader(frame, kindResponse, id, method, statusErr)
	return ep.sendFrame(ctx, frame)
}

// sendFrame hands frame to the transport, which takes it (see the
// transport.Conn contract): nothing here touches it afterwards.
func (ep *Endpoint) sendFrame(ctx context.Context, frame []byte) error {
	n := int64(len(frame))
	err := ep.conn.Send(ctx, frame)
	if m := ep.metrics; m != nil {
		// Counted after Send: the peer is already consuming the frame,
		// so this atomic overlaps with remote work instead of stretching
		// the round-trip chain. BytesOut lags the wire by one frame.
		m.BytesOut.Add(n)
	}
	return err
}

func (ep *Endpoint) readLoop() {
	// The read loop itself is bounded by connection close, not by a
	// context: Close unblocks Recv with ErrClosed on every transport.
	var err error
	for {
		var frame []byte
		frame, err = ep.conn.Recv(context.Background())
		if err != nil {
			break
		}
		if len(frame) < headerLen {
			err = fmt.Errorf("rpc: short frame (%d bytes)", len(frame))
			break
		}
		kind := frame[0]
		id := binary.LittleEndian.Uint64(frame[1:9])
		method := wire.Method(frame[9])
		status := frame[10]

		// The frame is a pooled buffer this endpoint owns (see the
		// ownership rules in wire/pool.go): each branch passes it on to
		// the one place that recycles it.
		switch kind {
		case kindRequest:
			ep.dispatch(id, method, frame)
		case kindResponse:
			ep.complete(id, status, frame)
		case kindCancel:
			ep.cancelInbound(id)
			wire.PutBuf(frame)
		default:
			err = fmt.Errorf("rpc: unknown frame kind %d", kind)
		}
		if m := ep.metrics; m != nil {
			// Counted after the frame is acted on: delivering a response
			// (or dispatching a request) wakes another goroutine, and the
			// atomic add overlaps with that work instead of delaying it.
			m.BytesIn.Add(int64(len(frame)))
		}
		if err != nil {
			break
		}
	}
	ep.shutdown()
}

// dispatch runs the handler for one request frame in its own goroutine,
// which recycles the frame once the handler has returned and the reply
// is sent — so a handler may alias its payload for as long as it runs
// (or until it calls ReleasePayload), and must copy what it keeps beyond
// that, unless it took the frame (TakePayload).
func (ep *Endpoint) dispatch(id uint64, method wire.Method, frame []byte) {
	h, ok := ep.handlers[method]
	if !ok {
		wire.PutBuf(frame)
		ep.handlerStart()
		ep.clk.Go(func() {
			defer ep.handlerDone()
			ep.sendErr(ep.baseCtx, id, method, wire.Errorf(wire.CodeInvalid, "rpc: no handler for method %d", method))
		})
		return
	}
	// Each request gets its own cancelable context, registered before the
	// next frame is read so a cancel frame can never race ahead of its
	// request on this ordered connection. Teardown cancels it explicitly
	// when the active table drains (see callCtx).
	cc := callCtxs.Get().(*callCtx)
	cc.base, cc.ep, cc.id, cc.method, cc.frame, cc.h = ep.baseCtx, ep, id, method, frame, h
	if !ep.active.register(id, cc) {
		// Teardown already drained the table; run the handler with the
		// context pre-canceled so it aborts promptly.
		cc.cancel()
	}
	ep.handlerStart()
	ep.clk.GoTask(cc)
}

// Run is the body of a request's goroutine: the handler, its reply, the
// request frame's return to the pool (unless the handler returned it
// early with ReleasePayload or took it with TakePayload), and the
// record's own return to its pool when nothing else can still hold it
// (see callCtx).
func (cc *callCtx) Run() {
	ep, id, method := cc.ep, cc.id, cc.method
	defer ep.handlerDone()
	defer func() {
		// A miss means a cancel frame or the shutdown drain claimed
		// the entry (and called cancel); either way the entry is gone.
		_, mine := ep.active.take(id)
		cc.cancel()
		if mine && cc.done.Load() == nil {
			cc.recycle()
		}
	}()
	ctx := context.Context(cc)
	// The sampling decision reads the counter (a plain load) up front;
	// the count itself is bumped after the reply frame is on the wire,
	// where the atomic overlaps with the peer processing the reply.
	// Under concurrent handlers the load-based decision may time a
	// neighbor of the exact n-th run — sampling is statistical anyway.
	m := ep.metrics
	var ms *methodStats
	var start, elapsed int64
	timed := false
	if m != nil {
		ms = m.method(method)
		if (ms.handles.Load()+1)&m.sampleMask == 1&m.sampleMask {
			timed = true
			start = obs.Now()
		}
	}
	reply, err := cc.h(ctx, cc.frame[headerLen:])
	if timed {
		elapsed = obs.Now() - start
	}
	if err != nil {
		ep.sendErr(ep.baseCtx, id, method, err)
	} else {
		ep.send(ep.baseCtx, kindResponse, id, method, statusOK, reply)
	}
	// The reply (which may alias the request payload) is encoded
	// and sent; nothing refers to the request frame any more.
	cc.releaseFrame()
	if ms != nil {
		ms.handles.Inc()
		if timed {
			ms.handleLat.Record(elapsed)
		}
	}
}

// ReleasePayload returns the request frame of the handler whose context
// is ctx to its pool before the handler returns, so a handler that has
// finished with its payload but still has to wait (a flush queued behind
// a busy device) does not hold the frame meanwhile. Call it from the
// handler's goroutine; afterwards neither the payload nor anything
// decoded from it without a copy may be touched, and the reply must not
// alias it. The frame goes back once however often it is called, and a
// ctx that is not a handler's is ignored.
func ReleasePayload(ctx context.Context) {
	if cc, ok := ctx.(*callCtx); ok {
		cc.releaseFrame()
	}
}

// TakePayload hands the request frame of the handler whose context is
// ctx to the handler, the complement of ReleasePayload: the dispatch
// goroutine then recycles nothing, and the frame is the caller's from
// then on — to keep for good (the data server's store may keep a flush
// frame as its stored bytes) or to PutBuf. It is returned whole, rpc
// header included, so its capacity is its allocation's. Call it from the
// handler's goroutine; the reply must not alias a frame the handler
// keeps past its return. It returns nil for a ctx that is not a
// handler's and once the frame is released or taken.
func TakePayload(ctx context.Context) []byte {
	cc, ok := ctx.(*callCtx)
	if !ok {
		return nil
	}
	frame := cc.frame
	cc.frame = nil
	return frame
}

// releaseFrame returns the request frame to its pool unless it is back
// already. Only the request's own goroutine calls it.
func (cc *callCtx) releaseFrame() {
	if cc.frame != nil {
		wire.PutBuf(cc.frame)
		cc.frame = nil
	}
}

// cancelInbound handles a peer's cancel frame: the named request's
// context fires, unwedging whatever the handler is blocked on. A miss is
// normal — the handler already completed. The entry is taken, not
// peeked: cancel frames are one-shot per id, so nothing is lost.
func (ep *Endpoint) cancelInbound(id uint64) {
	if cc, ok := ep.active.take(id); ok {
		cc.cancel()
	}
}

func (ep *Endpoint) complete(id uint64, status byte, frame []byte) {
	ch, ok := ep.pending.take(id)
	if !ok {
		wire.PutBuf(frame)
		return // stale (canceled) or duplicate response
	}
	if status == statusErr {
		err := wire.DecodeError(wire.NewDecoder(frame[headerLen:])) // copies what it keeps
		wire.PutBuf(frame)
		sim.Send(ep.clk, ch, response{err: err})
		return
	}
	// The frame is private to this endpoint after Recv; the waiting
	// caller takes it over and recycles it once the reply is decoded.
	sim.Send(ep.clk, ch, response{frame: frame})
}

func (ep *Endpoint) shutdown() {
	pend, first := ep.pending.closeAndDrain()
	if !first {
		return
	}
	for _, ch := range pend {
		sim.Send(ep.clk, ch, response{err: transport.ErrClosed})
	}
	ep.conn.Close()
	// Cancel the lifecycle context so handlers still running for this
	// connection observe the teardown and can abort, and fire every
	// live per-call context (callCtx does not chain off baseCtx, so the
	// drain is what delivers teardown to blocked handlers).
	ep.cancel()
	ccs, _ := ep.active.closeAndDrain()
	for _, cc := range ccs {
		cc.cancel()
	}
	if ep.metrics != nil {
		// Stop contributing to the in-flight derivation; the scalar
		// counters the endpoint already recorded stay in the Metrics.
		ep.metrics.detach(ep)
	}
	if ep.onClose != nil {
		ep.onClose(ep)
	}
}

// Server accepts connections from a listener and builds an endpoint for
// each via a setup callback that registers the handlers.
type Server struct {
	listener transport.Listener
	setup    func(*Endpoint)
	opts     Options

	mu     sync.Mutex
	eps    map[*Endpoint]struct{}
	closed bool
	done   chan struct{}
}

// NewServer returns a server that will accept on l, configuring every
// inbound endpoint with setup before starting it.
func NewServer(l transport.Listener, opts Options, setup func(*Endpoint)) *Server {
	return &Server{
		listener: l,
		setup:    setup,
		opts:     opts,
		eps:      make(map[*Endpoint]struct{}),
		done:     make(chan struct{}),
	}
}

// waitDone blocks until the accept loop has exited.
func (s *Server) waitDone() {
	sim.Recv(context.Background(), s.opts.Clock, s.done, nil, time.Time{})
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve() {
	defer sim.Close(s.opts.Clock, s.done)
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		opts := s.opts
		userClose := opts.OnClose
		opts.OnClose = func(ep *Endpoint) {
			s.mu.Lock()
			delete(s.eps, ep)
			s.mu.Unlock()
			if userClose != nil {
				userClose(ep)
			}
		}
		ep := NewEndpoint(conn, opts)
		// Register before setup/Start so a concurrent Close cannot miss
		// the endpoint; if Close already ran, drop the connection instead
		// of leaking a read loop it will never tear down.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.eps[ep] = struct{}{}
		s.mu.Unlock()
		s.setup(ep)
		ep.Start()
	}
}

// snapshot marks the server closed and returns the live endpoints.
func (s *Server) snapshot() []*Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	eps := make([]*Endpoint, 0, len(s.eps))
	for ep := range s.eps {
		eps = append(eps, ep)
	}
	return eps
}

// Shutdown drains the server: it stops accepting, waits for every
// in-flight handler on every endpoint to complete (bounded by ctx), then
// closes the endpoints. Blocked handlers must be unwedged by the caller
// first (e.g. failing queued lock waiters) or Shutdown falls back to a
// hard close when ctx fires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.listener.Close()
	eps := s.snapshot()
	s.waitDone() // the accept loop has exited; no new endpoints can appear
	var err error
	for _, ep := range eps {
		if e := ep.Drain(ctx); e != nil && err == nil {
			err = e
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
	return err
}

// Close stops accepting and closes all live endpoints immediately,
// without draining.
func (s *Server) Close() {
	s.listener.Close()
	eps := s.snapshot()
	for _, ep := range eps {
		ep.Close()
	}
	s.waitDone()
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.listener.Addr() }
