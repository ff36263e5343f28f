package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"ccpfs/internal/extent"
)

// Method identifies an RPC handler. Methods below 128 are client→server;
// methods at or above 128 are server→client callbacks.
type Method uint8

// RPC methods.
const (
	// Lock service.
	MLock       Method = 1 // LockRequest -> LockGrant
	MRelease    Method = 2 // ReleaseRequest -> Ack
	MDowngrade  Method = 3 // DowngradeRequest -> Ack
	MHandoffAck Method = 7 // HandoffAckRequest -> Ack (new owner confirms a delegated lock)
	// IO service.
	MFlush Method = 10 // FlushRequest -> Ack
	MRead  Method = 11 // ReadRequest -> ReadReply
	// 12 stays unassigned: it named the min-SN query, which the data
	// server answers in-process.
	MTruncate Method = 13 // TruncateRequest -> Ack (cut a stripe's stored bytes)
	// Metadata service. 22, 23 and 25 stay unassigned: they named the
	// size register's stat, push and append reservation; a file's size
	// now comes from its stripes' data servers (ReadReply.End).
	MCreate Method = 20 // CreateRequest -> FileReply
	MOpen   Method = 21 // OpenRequest -> FileReply
	MRemove Method = 24 // OpenRequest -> Ack
	MList   Method = 26 // Ack -> ListReply
	// Partition service (slot mastership; DESIGN.md §12).
	MPartitionMap Method = 4 // Ack -> PartitionMapReply (client map refresh)
	MSlotFreeze   Method = 5 // SlotFreezeRequest -> SlotState (migration source)
	MSlotInstall  Method = 6 // SlotInstall -> Ack (migration target)
	// Session.
	MHello Method = 30 // HelloRequest -> HelloReply
	// Server→client callbacks. 128 stays unassigned: it named the
	// single-lock revocation, and a frame from a peer that still sends
	// it must fail as an unknown method, not reach another handler. 131
	// stays unassigned for the same reason: it named the slot-filtered
	// report, which MReport's request now carries.
	MReport      Method = 129 // ReportRequest -> LockReport (lock-state replay, §IV-C2)
	MRevokeBatch Method = 130 // RevokeBatch -> RevokeBatchAck
	// MHandoff is the one transfer message (HandoffRequest): a part of a
	// handoff or gather, client→client from the previous holder or
	// server→client when the server covers it; the server's activation
	// of a delegation it resolved itself; and a cohort of read leases,
	// from a gathering writer to the cohort's lead and from each tree
	// node to its subtrees. Duplicates are idempotent at the receiver.
	// 133 stays unassigned: it named the separate lease propagation.
	MHandoff Method = 132 // HandoffRequest -> Ack
	// MAckSolicit asks the owner of a delegated lock to confirm it now
	// instead of lazily: a waiter at the server is blocked on nothing but
	// that confirmation. Server→client only; the answer is an ordinary
	// MHandoffAck, sent at once if the transfer has arrived and at its
	// arrival otherwise.
	MAckSolicit Method = 134 // AckSolicit -> Ack
)

// methodNames maps methods to their metric/debug labels. Indexed by the
// raw uint8 so lookups never allocate.
var methodNames = [256]string{
	MLock:         "Lock",
	MRelease:      "Release",
	MDowngrade:    "Downgrade",
	MFlush:        "Flush",
	MRead:         "Read",
	MTruncate:     "Truncate",
	MCreate:       "Create",
	MOpen:         "Open",
	MRemove:       "Remove",
	MList:         "List",
	MHello:        "Hello",
	MReport:       "Report",
	MRevokeBatch:  "RevokeBatch",
	MHandoff:      "Handoff",
	MHandoffAck:   "HandoffAck",
	MAckSolicit:   "AckSolicit",
	MPartitionMap: "PartitionMap",
	MSlotFreeze:   "SlotFreeze",
	MSlotInstall:  "SlotInstall",
}

// String returns the method's human-readable name, or "m<N>" for an
// unknown method number.
func (m Method) String() string {
	if s := methodNames[m]; s != "" {
		return s
	}
	return "m" + itoa(uint8(m))
}

// itoa formats a uint8 without pulling fmt into the wire package's
// dependency graph.
func itoa(v uint8) string {
	if v == 0 {
		return "0"
	}
	var buf [3]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = '0' + v%10
		v /= 10
	}
	return string(buf[i:])
}

// Msg is the interface all wire messages implement.
type Msg interface {
	Encode(e *Encoder)
	Decode(d *Decoder)
}

// HeadRoom is the room every frame keeps in front of its message for
// the rpc header: kind, call ID, method and status.
const HeadRoom = 1 + 8 + 1 + 1

// Body is a message built in place: Frame is a pooled buffer (GetBuf)
// whose bytes after HeadRoom already are the message's encoding, written
// there by the layer that had the bytes — the client's flush frames are
// filled straight from the page cache (FlushHead, BlockSlot), the data
// server's read replies straight from the store (ReadReplyBody). The rpc
// layer sends a Body by writing its header into Frame[:HeadRoom] and
// handing Frame to the transport, so the bulk bytes are not copied
// again, and sets Frame to nil. A Body that still has its frame after a
// call was not sent, and its owner puts the frame back.
type Body struct{ Frame []byte }

// Encode implements Msg by copying the body. rpc never calls it — it
// sends the frame itself — but Marshal does.
func (m *Body) Encode(e *Encoder) { e.buf = append(e.buf, m.Frame[HeadRoom:]...) }

// Decode implements Msg: the rest of the frame is the body.
func (m *Body) Decode(d *Decoder) {
	rest := d.buf[d.off:]
	d.off = len(d.buf)
	m.Frame = append(make([]byte, HeadRoom, HeadRoom+len(rest)), rest...)
}

// emptyFrame is the shared encoding of every payload-free message
// (Ack, cancel frames): all of them marshal to zero bytes, so they can
// share one frame instead of each allocating a 64-byte encoder.
var emptyFrame = make([]byte, 0)

// Marshal encodes m into a frame. Payload-free messages return a shared
// empty frame; the caller owns the result either way (the shared frame
// is immutable because it has no bytes to mutate and zero capacity).
func Marshal(m Msg) []byte {
	var e Encoder
	m.Encode(&e)
	if e.buf == nil {
		return emptyFrame
	}
	return e.buf
}

// Unmarshal decodes a frame into m, requiring full consumption.
//
// It inlines (TestAllocBudgetUnmarshalOnStack pins that), and its
// Decoder lives in the caller's frame. Where m is a pointer to a
// concrete message — a handler's `var req LockRequest;
// Unmarshal(p, &req)` — the compiler then devirtualizes the Decode call
// and neither the message nor the decoder escapes: decoding allocates
// only the slices the message makes. Where m is an interface value the
// call stays dynamic, the decoder escapes, and every call allocates
// one; such callers use UnmarshalMsg.
func Unmarshal(b []byte, m Msg) error {
	d := Decoder{buf: b}
	m.Decode(&d)
	if d.off != len(b) {
		return ErrTrailing
	}
	return d.err
}

// decoders recycles the Decoder UnmarshalMsg hands to m.Decode.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// UnmarshalMsg is Unmarshal for callers that hold m only as a Msg (the
// rpc layer decoding a caller's reply): its Decoder comes from a pool,
// so the dynamic call costs no allocation.
func UnmarshalMsg(b []byte, m Msg) error {
	d := decoders.Get().(*Decoder)
	*d = Decoder{buf: b}
	m.Decode(d)
	err := d.Finish()
	*d = Decoder{}
	decoders.Put(d)
	return err
}

func encodeExtent(e *Encoder, x extent.Extent) {
	e.I64(x.Start)
	e.I64(x.End)
}

func decodeExtent(d *Decoder) extent.Extent {
	return extent.Extent{Start: d.I64(), End: d.I64()}
}

// Ack is the empty reply used by methods that only signal completion.
type Ack struct{}

// Encode implements Msg.
func (Ack) Encode(*Encoder) {}

// Decode implements Msg.
func (*Ack) Decode(*Decoder) {}

// LockRequest asks a lock server for a byte-range lock on a resource.
type LockRequest struct {
	Resource uint64
	Client   uint32
	Mode     uint8
	Range    extent.Extent
	// Extents carries the non-contiguous lock range of the DLM-datatype
	// baseline; empty for interval-based policies.
	Extents []extent.Extent
	// HandoffAcks piggybacks delegation acknowledgements for locks on
	// this resource: the client received them via direct client-to-client
	// handoff and confirms ownership on its next lock RPC, saving the
	// standalone MHandoffAck round trip in steady ping-pong traffic.
	HandoffAcks []uint64
}

// Encode implements Msg.
func (m *LockRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U32(m.Client)
	e.U8(m.Mode)
	encodeExtent(e, m.Range)
	e.U32(uint32(len(m.Extents)))
	for _, x := range m.Extents {
		encodeExtent(e, x)
	}
	e.U32(uint32(len(m.HandoffAcks)))
	for _, id := range m.HandoffAcks {
		e.U64(id)
	}
}

// Decode implements Msg.
func (m *LockRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Client = d.U32()
	m.Mode = d.U8()
	m.Range = decodeExtent(d)
	n := d.Len32(16)
	if n > 0 {
		m.Extents = make([]extent.Extent, n)
		for i := range m.Extents {
			m.Extents[i] = decodeExtent(d)
		}
	}
	n = d.Len32(8)
	if n > 0 {
		m.HandoffAcks = make([]uint64, n)
		for i := range m.HandoffAcks {
			m.HandoffAcks[i] = d.U64()
		}
	}
}

// LockGrant is the reply to a LockRequest. The server may expand the
// range, upgrade the mode (automatic lock conversion), tag the lock
// CANCELING (early revocation), and list same-client lock IDs the grant
// absorbed during upgrading.
type LockGrant struct {
	LockID   uint64
	Mode     uint8
	Range    extent.Extent
	SN       uint64
	State    uint8
	Absorbed []uint64
	// Delegated marks a handoff grant: the lock exists in the server's
	// table but ownership arrives via a direct transfer from the previous
	// holder (MHandoff). The client must wait for that activation before
	// using the lock, and must ack the server once it owns it.
	Delegated bool
	// GatherParts is the number of client-to-client transfer parts a
	// delegated write grant must collect before activating: a writer
	// taking over from a reader cohort receives one MHandoff part per
	// cohort member instead of a single transfer. Zero for ordinary
	// delegations (one transfer activates the lock).
	GatherParts uint32
	// HandBack pre-arms the next read fan-out: the server has already
	// installed delegated leases for the displaced reader cohort, and
	// the grantee (a writer) owes the cohort this stamp's transfer when
	// it finishes — without another server round trip.
	HandBack *Stamp
}

// Encode implements Msg.
func (m *LockGrant) Encode(e *Encoder) {
	e.U64(m.LockID)
	e.U8(m.Mode)
	encodeExtent(e, m.Range)
	e.U64(m.SN)
	e.U8(m.State)
	e.U32(uint32(len(m.Absorbed)))
	for _, id := range m.Absorbed {
		e.U64(id)
	}
	e.Bool(m.Delegated)
	e.U32(m.GatherParts)
	encodeStamp(e, m.HandBack)
}

// Decode implements Msg.
func (m *LockGrant) Decode(d *Decoder) {
	m.LockID = d.U64()
	m.Mode = d.U8()
	m.Range = decodeExtent(d)
	m.SN = d.U64()
	m.State = d.U8()
	n := d.Len32(8)
	if n > 0 {
		m.Absorbed = make([]uint64, n)
		for i := range m.Absorbed {
			m.Absorbed[i] = d.U64()
		}
	}
	m.Delegated = d.Bool()
	m.GatherParts = d.U32()
	m.HandBack = decodeStamp(d, nil)
}

// ReleaseRequest returns a fully canceled lock to the server.
type ReleaseRequest struct {
	Resource uint64
	LockID   uint64
}

// Encode implements Msg.
func (m *ReleaseRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
}

// Decode implements Msg.
func (m *ReleaseRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
}

// DowngradeRequest converts a granted lock to a less restrictive mode
// (BW→NBW, PW→NBW or PW→PR) so conflicting requests can be early
// granted (§III-D2).
type DowngradeRequest struct {
	Resource uint64
	LockID   uint64
	NewMode  uint8
}

// Encode implements Msg.
func (m *DowngradeRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
	e.U8(m.NewMode)
}

// Decode implements Msg.
func (m *DowngradeRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
	m.NewMode = d.U8()
}

// Lease is one delegated lock of a stamp's cohort: its owner, its
// server-assigned identity and the SN the sequencer fixed at stamp time.
type Lease struct {
	Owner  uint32
	LockID uint64
	SN     uint64
}

// Stamp is a delegation: the ordered cohort of at least one lease the
// server installed for the next owners, their mode, and whether the
// holder must flush its writes before it transfers. Leases[0] is the
// next owner: the successor of a handoff, or the lead of a reader
// cohort, which propagates the rest down a tree of Fanout children per
// node over Range. A handoff (Fanout 0) is a cohort of exactly one and
// carries no range: its owner waits for the lock under its own grant.
type Stamp struct {
	Mode      uint8
	MustFlush bool
	Leases    []Lease
	Range     extent.Extent
	Fanout    uint8
	// one backs Leases for a handoff, so a stamp kept in a reused or
	// embedded record (a revocation batch's entry) needs no allocation
	// of its own.
	one [1]Lease
}

// ResetLeases empties s.Leases with room for n leases, in the stamp's
// own array for a handoff's one.
func (s *Stamp) ResetLeases(n int) {
	if n <= 1 {
		s.Leases = s.one[:0]
		return
	}
	s.Leases = slices.Grow(s.Leases[:0], n)
}

// encodeStamp writes an optional stamp: a tag byte (0 none, 1 a
// handoff, 2 a cohort), the mode and flush obligation, a cohort's range,
// fan-out and lease count, then the leases: a handoff's one alone.
func encodeStamp(e *Encoder, s *Stamp) {
	if s == nil {
		e.U8(0)
		return
	}
	leases := s.Leases
	e.U8(min(s.Fanout, 1) + 1)
	e.U8(s.Mode)
	e.Bool(s.MustFlush)
	if s.Fanout == 0 {
		leases = leases[:1]
	} else {
		encodeExtent(e, s.Range)
		e.U8(s.Fanout)
		e.U32(uint32(len(leases)))
	}
	for _, l := range leases {
		e.U32(l.Owner)
		e.U64(l.LockID)
		e.U64(l.SN)
	}
}

// decodeStamp decodes an optional stamp into s, or into a new Stamp
// when s is nil, and returns it; nil when none was present. A frame
// that would not re-encode to itself — an unknown tag, a cohort with no
// lease or no fan-out — fails the decode.
func decodeStamp(d *Decoder, s *Stamp) *Stamp {
	tag := d.U8()
	if tag == 0 || d.err != nil {
		return nil
	}
	if s == nil {
		s = new(Stamp)
	}
	s.Mode = d.U8()
	s.MustFlush = d.StrictBool()
	n := 1
	if tag != 1 {
		s.Range = decodeExtent(d)
		s.Fanout = d.U8()
		n = d.Len32(20)
		if (tag != 2 || n == 0 || s.Fanout == 0) && d.err == nil {
			d.fail(fmt.Errorf("wire: invalid stamp (tag %d, %d leases, fan-out %d)", tag, n, s.Fanout))
		}
	}
	if d.err != nil {
		return nil
	}
	s.ResetLeases(n)
	for range n {
		s.Leases = append(s.Leases, Lease{Owner: d.U32(), LockID: d.U64(), SN: d.U64()})
	}
	return s
}

// RevokeEntry asks the holder of one cached lock to cancel it. A
// non-nil Handoff turns the revocation into a transfer order: after
// flushing (per the stamp), the holder hands the lock directly to the
// stamped next owner instead of releasing it back to the server.
type RevokeEntry struct {
	Resource uint64
	LockID   uint64
	Handoff  *Stamp
	// stamp is where RevokeBatch.Decode puts a decoded Handoff, so a
	// batch's entries and stamps are one allocation.
	stamp Stamp
}

// RevokeBatch is the server→client callback carrying every revocation
// currently pending for one client in a single RPC: the lock server's
// revocation batcher coalesces per destination, so a wide conflict
// costs one callback per holder instead of one per lock (DESIGN.md §9).
// The reply is a RevokeBatchAck listing the entries the client has
// processed; an acked entry is the revocation reply that moves its lock
// to CANCELING on the server and unlocks early grant.
type RevokeBatch struct {
	Entries []RevokeEntry
}

// Encode implements Msg.
func (m *RevokeBatch) Encode(e *Encoder) {
	e.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		e.U64(m.Entries[i].Resource)
		e.U64(m.Entries[i].LockID)
		encodeStamp(e, m.Entries[i].Handoff)
	}
}

// Decode implements Msg.
func (m *RevokeBatch) Decode(d *Decoder) {
	n := d.Len32(17)
	if n > 0 {
		m.Entries = make([]RevokeEntry, n)
		for i := range m.Entries {
			e := &m.Entries[i]
			e.Resource = d.U64()
			e.LockID = d.U64()
			e.Handoff = decodeStamp(d, &e.stamp)
		}
	}
}

// RevokeBatchAck is the reply to a RevokeBatch: the batched revocation
// acks. Entries absent from Acked were not processed (the client is
// shutting down mid-batch); the server treats them like a failed
// individual revocation — ack and force-release on the holder's behalf.
type RevokeBatchAck struct {
	Acked []RevokeEntry
}

// Encode implements Msg.
func (m *RevokeBatchAck) Encode(e *Encoder) {
	e.U32(uint32(len(m.Acked)))
	for i := range m.Acked {
		e.U64(m.Acked[i].Resource)
		e.U64(m.Acked[i].LockID)
	}
}

// Decode implements Msg. It decodes into Acked's capacity when that
// suffices, so a reused ack (the lock server's pooled revocation
// record) decodes without allocating.
func (m *RevokeBatchAck) Decode(d *Decoder) {
	n := d.Len32(16)
	if cap(m.Acked) < n {
		m.Acked = make([]RevokeEntry, n)
	}
	m.Acked = m.Acked[:n]
	for i := range m.Acked {
		m.Acked[i] = RevokeEntry{Resource: d.U64(), LockID: d.U64()}
	}
}

// HandoffRequest is the transfer message (MHandoff). A part or an
// activation names the delegated lock it is for in LockID; a cohort
// names its locks in its leases and leaves LockID zero.
type HandoffRequest struct {
	Resource uint64
	LockID   uint64
	// Member names the cohort member's lock a gather part retires, so
	// the gathering writer counts each member once, whether its part
	// came from the member or, after a release, from the server. Zero
	// on a handoff part and on an activation.
	Member uint64
	// Acks piggybacks the sender's queued delegation acknowledgements
	// for this resource: a reader transferring to a gathering writer
	// forwards its pending acks so the writer can batch them onto its
	// next server RPC instead of each reader paying a standalone
	// MHandoffAck.
	Acks []uint64
	// Cohort carries read leases: the receiver installs Leases[0] as
	// its own and forwards the rest, split into Fanout subtrees, each
	// to the owner of its first lease.
	Cohort *Stamp
	// Final marks a server-sent activation: the delegation was resolved
	// server-side, so the receiver activates immediately even if it was
	// collecting multiple gather parts. Parts leave it false.
	Final bool
}

// Encode implements Msg. One flag byte carries Final and whether a
// Member follows, so a handoff part spends no bytes on a member.
func (m *HandoffRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
	e.U32(uint32(len(m.Acks)))
	for _, id := range m.Acks {
		e.U64(id)
	}
	encodeStamp(e, m.Cohort)
	var flags uint8
	if m.Final {
		flags |= 1
	}
	if m.Member != 0 {
		flags |= 2
	}
	e.U8(flags)
	if m.Member != 0 {
		e.U64(m.Member)
	}
}

// Decode implements Msg.
func (m *HandoffRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
	n := d.Len32(8)
	if n > 0 {
		m.Acks = make([]uint64, n)
		for i := range m.Acks {
			m.Acks[i] = d.U64()
		}
	}
	m.Cohort = decodeStamp(d, nil)
	flags := d.U8()
	m.Final = flags&1 != 0
	if flags&2 != 0 {
		m.Member = d.U64()
	}
}

// HandoffAckRequest is the new owner's asynchronous confirmation that a
// delegated lock arrived: the server retires the predecessor's table
// entry and cancels the reclaim timer. Acks for already-resolved
// delegations are idempotent no-ops.
type HandoffAckRequest struct {
	Resource uint64
	LockID   uint64
	// More batches additional lock IDs acked in the same request: a
	// reader cohort's acks gathered by a writer, or a client draining a
	// backlog, confirm in one RPC instead of one per lock.
	More []uint64
}

// Encode implements Msg.
func (m *HandoffAckRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
	e.U32(uint32(len(m.More)))
	for _, id := range m.More {
		e.U64(id)
	}
}

// Decode implements Msg.
func (m *HandoffAckRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
	n := d.Len32(8)
	if n > 0 {
		m.More = make([]uint64, n)
		for i := range m.More {
			m.More[i] = d.U64()
		}
	}
}

// AckSolicit names one delegated lock whose confirmation the server
// wants without delay (MAckSolicit). It carries no state of its own: a
// duplicate, or one for a lock already confirmed or gone, is a no-op at
// the receiver.
type AckSolicit struct {
	Resource uint64
	LockID   uint64
}

// Encode implements Msg.
func (m *AckSolicit) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.U64(m.LockID)
}

// Decode implements Msg.
func (m *AckSolicit) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.LockID = d.U64()
}

// Block is one SN-tagged extent of data in a flush or read message.
type Block struct {
	Range extent.Extent
	SN    uint64
	Data  []byte
}

// blockHeaderLen is the encoded size of a Block without its data: range,
// SN, and the data's length prefix.
const blockHeaderLen = 16 + 8 + 4

// blocksSize returns the encoded size of a block list, count included.
func blocksSize(blocks []Block) int {
	n := 4
	for i := range blocks {
		n += blockHeaderLen + len(blocks[i].Data)
	}
	return n
}

// FlushRequest carries dirty client-cache blocks to a data server. Blocks
// from multiple locks may be batched; each block carries the SN of the
// lock it was written under (§IV-A).
type FlushRequest struct {
	Resource uint64
	Client   uint32
	Blocks   []Block
}

// FlushSize is the encoded size of a FlushRequest of n blocks that carry
// payload data bytes in all.
func FlushSize(n int, payload int64) int { return 8 + 4 + 4 + n*blockHeaderLen + int(payload) }

// EncodedSize implements Sizer.
func (m *FlushRequest) EncodedSize() int { return 8 + 4 + blocksSize(m.Blocks) }

// exactFlushPayload is the payload from which FlushEncoder allocates a
// frame at its exact size.
const exactFlushPayload = 128 << 10

// FlushEncoder returns an encoder that builds a FlushRequest of n blocks
// carrying payload data bytes in place (FlushHead, then n BlockSlots;
// finish with TakeFrame). A frame carrying exactFlushPayload or more is
// allocated at its exact size instead of drawn from the pool, because
// the data server may keep it for good as its stored bytes (storage's
// keep rule), and a size class's slack — up to half the buffer — would
// be held with it. A smaller frame can never be kept and comes from the
// pool.
func FlushEncoder(n int, payload int64) *Encoder {
	size := FlushSize(n, payload)
	if payload < exactFlushPayload {
		return BodyEncoder(size)
	}
	e := encoders.Get().(*Encoder)
	e.buf = make([]byte, HeadRoom, HeadRoom+size)
	return e
}

// FlushHead starts a FlushRequest built in place: its fields up to its
// n blocks, which follow as n BlockSlots.
func FlushHead(e *Encoder, resource uint64, client uint32, n int) {
	e.U64(resource)
	e.U32(client)
	e.U32(uint32(n))
}

// BlockSlot appends a block of a FlushRequest or ReadReply built in
// place: its range, SN and length, then room for its r.Len() data bytes,
// which it returns for the caller to fill. Encode writes the same bytes
// for a block whose Data is r.Len() bytes long.
func BlockSlot(e *Encoder, r extent.Extent, sn uint64) []byte {
	encodeExtent(e, r)
	e.U64(sn)
	e.U32(uint32(r.Len()))
	return e.Slot(int(r.Len()))
}

// Encode implements Msg.
func (m *FlushRequest) Encode(e *Encoder) {
	FlushHead(e, m.Resource, m.Client, len(m.Blocks))
	encodeBlocks(e, m.Blocks)
}

// encodeBlocks appends the blocks of a FlushRequest or ReadReply.
func encodeBlocks(e *Encoder, blocks []Block) {
	for i := range blocks {
		encodeExtent(e, blocks[i].Range)
		e.U64(blocks[i].SN)
		e.Bytes32(blocks[i].Data)
	}
}

// decodeBlocks reads a block count and the blocks, into buf's array
// when it has room; their data aliases the frame.
func decodeBlocks(d *Decoder, buf []Block) []Block {
	n := d.Len32(blockHeaderLen)
	if n == 0 {
		return nil
	}
	blocks := buf[:0]
	if cap(blocks) < n {
		blocks = make([]Block, n)
	}
	blocks = blocks[:n]
	for i := range blocks {
		blocks[i].Range = decodeExtent(d)
		blocks[i].SN = d.U64()
		blocks[i].Data = d.Bytes32()
	}
	return blocks
}

// Decode implements Msg.
func (m *FlushRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Client = d.U32()
	m.Blocks = decodeBlocks(d, nil)
}

// UnmarshalFlush is Unmarshal of a FlushRequest whose blocks are decoded
// into buf's array when it has room: a handler passing a stack buffer
// decodes a flush RPC of few blocks without allocating.
func UnmarshalFlush(p []byte, buf []Block) (FlushRequest, error) {
	d := Decoder{buf: p}
	m := FlushRequest{Resource: d.U64(), Client: d.U32()}
	m.Blocks = decodeBlocks(&d, buf)
	if d.off != len(p) {
		return m, ErrTrailing
	}
	return m, d.err
}

// ReadRequest fetches a byte range of a stripe resource.
type ReadRequest struct {
	Resource uint64
	Range    extent.Extent
}

// Encode implements Msg.
func (m *ReadRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	encodeExtent(e, m.Range)
}

// Decode implements Msg.
func (m *ReadRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Range = decodeExtent(d)
}

// TruncateRequest cuts one stripe at its stripe-local end Size, under
// the truncating PW lock's SN: the stored bytes from Size on are
// dropped, and a flush older than SN can no longer write there.
type TruncateRequest struct {
	Resource uint64
	Size     int64
	SN       uint64
}

// Encode implements Msg.
func (m *TruncateRequest) Encode(e *Encoder) {
	e.U64(m.Resource)
	e.I64(m.Size)
	e.U64(m.SN)
}

// Decode implements Msg.
func (m *TruncateRequest) Decode(d *Decoder) {
	m.Resource = d.U64()
	m.Size = d.I64()
	m.SN = d.U64()
}

// ReadReply returns the stored blocks covering the requested range up
// to the stripe's end; holes (never-written ranges) are omitted and read
// as zeros, and so does the part of the range at or past the end. End is
// the stripe's end on its data server when the read was served: a read
// of an empty range asks for it alone.
//
// A decoded ReadReply's block data aliases the response frame, so the
// reply holds that frame (FrameHolder) until the caller calls Release.
type ReadReply struct {
	End    int64
	Blocks []Block

	frame []byte // the pooled response frame Blocks alias, if any
}

// EncodedSize implements Sizer.
func (m *ReadReply) EncodedSize() int { return 8 + blocksSize(m.Blocks) }

// HoldFrame implements FrameHolder.
func (m *ReadReply) HoldFrame(frame []byte) { m.frame = frame }

// Release returns the frame the blocks alias to the pool. Call it after
// the last use of Blocks[i].Data; the reply is empty afterwards.
func (m *ReadReply) Release() {
	if m.frame != nil {
		PutBuf(m.frame)
		m.frame = nil
	}
	m.Blocks = nil
}

// Encode implements Msg.
func (m *ReadReply) Encode(e *Encoder) {
	e.I64(m.End)
	e.U32(uint32(len(m.Blocks)))
	encodeBlocks(e, m.Blocks)
}

// Decode implements Msg.
func (m *ReadReply) Decode(d *Decoder) {
	m.End = d.I64()
	m.Blocks = decodeBlocks(d, nil)
}

// ReadReplyBody builds a one-block ReadReply for r in place, carrying
// the stripe end end: fill writes the block's r.Len() bytes into data
// and then returns the block's SN. A failed fill puts the frame back.
func ReadReplyBody(r extent.Extent, end int64, fill func(data []byte) (uint64, error)) (*Body, error) {
	e := BodyEncoder(8 + 4 + blockHeaderLen + int(r.Len()))
	e.I64(end)
	e.U32(1)
	at := len(e.buf) + 16 // the SN follows the range
	sn, err := fill(BlockSlot(e, r, 0))
	frame := TakeFrame(e)
	if err != nil {
		PutBuf(frame)
		return nil, err
	}
	binary.LittleEndian.PutUint64(frame[at:], sn)
	return &Body{Frame: frame}, nil
}

// CreateRequest creates a file in the namespace with a stripe layout.
type CreateRequest struct {
	Path        string
	StripeSize  int64
	StripeCount uint32
}

// Encode implements Msg.
func (m *CreateRequest) Encode(e *Encoder) {
	e.String(m.Path)
	e.I64(m.StripeSize)
	e.U32(m.StripeCount)
}

// Decode implements Msg.
func (m *CreateRequest) Decode(d *Decoder) {
	m.Path = d.String()
	m.StripeSize = d.I64()
	m.StripeCount = d.U32()
}

// OpenRequest opens or removes a file by path.
type OpenRequest struct {
	Path string
}

// Encode implements Msg.
func (m *OpenRequest) Encode(e *Encoder) { e.String(m.Path) }

// Decode implements Msg.
func (m *OpenRequest) Decode(d *Decoder) { m.Path = d.String() }

// FileReply describes a file: identifier and stripe layout.
type FileReply struct {
	FID         uint64
	StripeSize  int64
	StripeCount uint32
}

// Encode implements Msg.
func (m *FileReply) Encode(e *Encoder) {
	e.U64(m.FID)
	e.I64(m.StripeSize)
	e.U32(m.StripeCount)
}

// Decode implements Msg.
func (m *FileReply) Decode(d *Decoder) {
	m.FID = d.U64()
	m.StripeSize = d.I64()
	m.StripeCount = d.U32()
}

// ListReply enumerates the namespace.
type ListReply struct {
	Paths []string
}

// Encode implements Msg.
func (m *ListReply) Encode(e *Encoder) {
	e.U32(uint32(len(m.Paths)))
	for _, p := range m.Paths {
		e.String(p)
	}
}

// Decode implements Msg.
func (m *ListReply) Decode(d *Decoder) {
	n := d.Len32(4)
	if n > 0 {
		m.Paths = make([]string, n)
		for i := range m.Paths {
			m.Paths[i] = d.String()
		}
	}
}

// LockRecord describes one lock moving to a new master: replayed by
// its client (§IV-C2) or exported with a migrating slot.
type LockRecord struct {
	Resource uint64
	Client   uint32
	LockID   uint64
	Mode     uint8
	Range    extent.Extent
	SN       uint64
	State    uint8
	// Flags carries handoff-delegation state across a replay (DESIGN.md
	// §13): the rebuilding master force-resolves reported delegations
	// the way a freeze would, instead of restoring handed-off pairs it
	// has no delegation state for.
	Flags uint8
}

// LockRecord flags.
const (
	// LockFlagDelegated marks a delegated grant whose transfer the
	// reporting client is still waiting for.
	LockFlagDelegated uint8 = 1 << iota
	// LockFlagHandedOff marks a lock its holder owes (or has already
	// sent) to a successor; the holder will never release it to the
	// server.
	LockFlagHandedOff
)

// encodeLockRecords and decodeLockRecords are the one codec of a lock
// record list, shared by LockReport and SlotState.
func encodeLockRecords(e *Encoder, locks []LockRecord) {
	e.U32(uint32(len(locks)))
	for i := range locks {
		l := &locks[i]
		e.U64(l.Resource)
		e.U32(l.Client)
		e.U64(l.LockID)
		e.U8(l.Mode)
		encodeExtent(e, l.Range)
		e.U64(l.SN)
		e.U8(l.State)
		e.U8(l.Flags)
	}
}

func decodeLockRecords(d *Decoder) []LockRecord {
	n := d.Len32(47) // a record's encoded size
	if n == 0 {
		return nil
	}
	locks := make([]LockRecord, n)
	for i := range locks {
		l := &locks[i]
		l.Resource = d.U64()
		l.Client = d.U32()
		l.LockID = d.U64()
		l.Mode = d.U8()
		l.Range = decodeExtent(d)
		l.SN = d.U64()
		l.State = d.U8()
		l.Flags = d.U8()
	}
	return locks
}

// ReportRequest asks a client to replay the locks it holds so a server
// can rebuild their tables (§IV-C2): the locks of Slots, claimed by
// lease takeover, or with no Slots the locks placed on the asking
// server (full-crash recovery). Slots out of range match nothing. The
// reply is a LockReport.
type ReportRequest struct {
	Slots []uint32
}

// Encode implements Msg.
func (m *ReportRequest) Encode(e *Encoder) {
	e.U32(uint32(len(m.Slots)))
	for _, s := range m.Slots {
		e.U32(s)
	}
}

// Decode implements Msg.
func (m *ReportRequest) Decode(d *Decoder) {
	n := d.Len32(4)
	if n > 0 {
		m.Slots = make([]uint32, n)
		for i := range m.Slots {
			m.Slots[i] = d.U32()
		}
	}
}

// LockReport is the client's reply to a ReportRequest.
type LockReport struct {
	Locks []LockRecord
}

// Encode implements Msg.
func (m *LockReport) Encode(e *Encoder) { encodeLockRecords(e, m.Locks) }

// Decode implements Msg.
func (m *LockReport) Decode(d *Decoder) { m.Locks = decodeLockRecords(d) }

// HelloRequest registers a connection with a node. Clients announce a
// name; the server assigns the client identifier used in lock requests.
type HelloRequest struct {
	NodeName string
	// ClientID lets a client reuse one identity across connections to
	// multiple servers; zero asks the server to assign one.
	ClientID uint32
	// Bulk marks a data-path connection (flush/read traffic). Bulk
	// connections are not used for revocation callbacks, mirroring the
	// prototype's split between CaRT RPCs and RDMA bulk transfers.
	Bulk bool
}

// Encode implements Msg.
func (m *HelloRequest) Encode(e *Encoder) {
	e.String(m.NodeName)
	e.U32(m.ClientID)
	e.Bool(m.Bulk)
}

// Decode implements Msg.
func (m *HelloRequest) Decode(d *Decoder) {
	m.NodeName = d.String()
	m.ClientID = d.U32()
	m.Bulk = d.Bool()
}

// HelloReply confirms registration.
type HelloReply struct {
	ClientID uint32
}

// Encode implements Msg.
func (m *HelloReply) Encode(e *Encoder) { e.U32(m.ClientID) }

// Decode implements Msg.
func (m *HelloReply) Decode(d *Decoder) { m.ClientID = d.U32() }

// PartitionMapReply carries the versioned slot→lock-server routing
// table (DESIGN.md §12). Owners[s] is the index of the server
// mastering hash slot s, or -1 when the slot is currently masterless;
// Epoch orders views — a client discards any reply older than the map
// it already holds.
type PartitionMapReply struct {
	Epoch  uint64
	Owners []int32
}

// Encode implements Msg.
func (m *PartitionMapReply) Encode(e *Encoder) {
	e.U64(m.Epoch)
	e.U32(uint32(len(m.Owners)))
	for _, o := range m.Owners {
		e.U32(uint32(o))
	}
}

// Decode implements Msg.
func (m *PartitionMapReply) Decode(d *Decoder) {
	m.Epoch = d.U64()
	n := d.Len32(4)
	if n > 0 {
		m.Owners = make([]int32, n)
		for i := range m.Owners {
			m.Owners[i] = int32(d.U32())
		}
	}
}

// SlotFreezeRequest asks the migration source to freeze one slot and
// return its exported lock tables.
type SlotFreezeRequest struct {
	Slot uint32
}

// Encode implements Msg.
func (m *SlotFreezeRequest) Encode(e *Encoder) { e.U32(m.Slot) }

// Decode implements Msg.
func (m *SlotFreezeRequest) Decode(d *Decoder) { m.Slot = d.U32() }

// SlotResource is one resource's transferable state inside a
// SlotState: its unreleased locks, its sequencer position (NextSN),
// and its lifetime grant count (which drives the DLM-Lustre expansion
// threshold). Queued waiters are not transferred — they are redirected
// at freeze time and re-request at the new master.
type SlotResource struct {
	Resource uint64
	NextSN   uint64
	Grants   uint64
	Locks    []LockRecord
}

// SlotState is a frozen slot's full lock table — the payload a
// migration moves from source to target. Floor is the source's
// sequencer floor: a resource the target first creates in the slot
// resumes at or above it (DESIGN.md §12).
type SlotState struct {
	Slot      uint32
	Floor     uint64
	Resources []SlotResource
}

// Encode implements Msg.
func (m *SlotState) Encode(e *Encoder) {
	e.U32(m.Slot)
	e.U64(m.Floor)
	e.U32(uint32(len(m.Resources)))
	for i := range m.Resources {
		r := &m.Resources[i]
		e.U64(r.Resource)
		e.U64(r.NextSN)
		e.U64(r.Grants)
		encodeLockRecords(e, r.Locks)
	}
}

// Decode implements Msg.
func (m *SlotState) Decode(d *Decoder) {
	m.Slot = d.U32()
	m.Floor = d.U64()
	n := d.Len32(28) // 3 u64 + locks length per resource, minimum
	if n > 0 {
		m.Resources = make([]SlotResource, n)
		for i := range m.Resources {
			r := &m.Resources[i]
			r.Resource = d.U64()
			r.NextSN = d.U64()
			r.Grants = d.U64()
			r.Locks = decodeLockRecords(d)
		}
	}
}

// SlotInstall hands a frozen slot's state to the migration target,
// which takes mastership of the slot at the given post-transfer
// epoch.
type SlotInstall struct {
	Epoch uint64
	State SlotState
}

// Encode implements Msg.
func (m *SlotInstall) Encode(e *Encoder) {
	e.U64(m.Epoch)
	m.State.Encode(e)
}

// Decode implements Msg.
func (m *SlotInstall) Decode(d *Decoder) {
	m.Epoch = d.U64()
	m.State.Decode(d)
}
