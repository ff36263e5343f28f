package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"ccpfs/internal/extent"
)

func roundTrip(t *testing.T, in Msg, out Msg) {
	t.Helper()
	frame := Marshal(in)
	if err := Unmarshal(frame, out); err != nil {
		t.Fatalf("Unmarshal(%T): %v", in, err)
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder(0)
	e.U8(200)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)
	e.Bytes32([]byte{1, 2, 3})
	e.String("héllo")

	d := NewDecoder(e.Bytes())
	if d.U8() != 200 || d.U32() != 1<<30 || d.U64() != 1<<60 || d.I64() != -42 {
		t.Fatal("numeric round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip failed")
	}
	if !bytes.Equal(d.Bytes32(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip failed")
	}
	if d.String() != "héllo" {
		t.Fatal("string round trip failed")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderTruncated(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U64()
	if d.Err() != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
	// Sticky: subsequent reads keep failing without panicking.
	d.U32()
	_ = d.String()
	if d.Err() != ErrTruncated {
		t.Fatal("error not sticky")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.U8()
	if err := d.Finish(); err != ErrTrailing {
		t.Fatalf("Finish with trailing bytes = %v, want ErrTrailing", err)
	}
	if err := Unmarshal(append(Marshal(&ReleaseRequest{Resource: 1, LockID: 2}), 0), &ReleaseRequest{}); err != ErrTrailing {
		t.Fatalf("Unmarshal with a trailing byte = %v, want ErrTrailing", err)
	}
	// A failed decode consumed its frame: it reports its own error, not
	// the bytes it never got to.
	if err := Unmarshal([]byte{1, 2, 3}, &ReleaseRequest{}); err != ErrTruncated {
		t.Fatalf("Unmarshal of a truncated frame = %v, want ErrTruncated", err)
	}
	e := NewEncoder(0)
	e.U8(7)
	e.U32(0xFFFFFFFF)
	d = NewDecoder(e.Bytes())
	d.U8()
	d.Len32(8)
	if err := d.Finish(); err != ErrTruncated {
		t.Fatalf("Finish after a hostile length = %v, want ErrTruncated", err)
	}
}

func TestDecoderHostileLength(t *testing.T) {
	// A frame declaring a 4 G-element collection must not allocate it.
	e := NewEncoder(0)
	e.U32(0xFFFFFFFF)
	d := NewDecoder(e.Bytes())
	if n := d.Len32(8); n != 0 || d.Err() == nil {
		t.Fatalf("Len32 = %d, err = %v; want rejection", n, d.Err())
	}
	// Same for Bytes32.
	d2 := NewDecoder(e.Bytes())
	if b := d2.Bytes32(); b != nil || d2.Err() == nil {
		t.Fatal("Bytes32 accepted hostile length")
	}
}

func TestLockRequestRoundTrip(t *testing.T) {
	in := &LockRequest{
		Resource: 0xABCDEF,
		Client:   7,
		Mode:     3,
		Range:    extent.New(4096, extent.Inf),
		Extents:  []extent.Extent{extent.New(0, 10), extent.New(20, 30)},
	}
	var out LockRequest
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("got %+v, want %+v", out, *in)
	}
}

func TestLockGrantRoundTrip(t *testing.T) {
	in := &LockGrant{
		LockID:   99,
		Mode:     2,
		Range:    extent.New(0, extent.Inf),
		SN:       12345,
		State:    1,
		Absorbed: []uint64{3, 5, 8},
	}
	var out LockGrant
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("got %+v, want %+v", out, *in)
	}
}

func TestFlushRequestRoundTrip(t *testing.T) {
	in := &FlushRequest{
		Resource: 42,
		Client:   3,
		Blocks: []Block{
			{Range: extent.New(0, 4), SN: 9, Data: []byte{1, 2, 3, 4}},
			{Range: extent.New(100, 102), SN: 10, Data: []byte{5, 6}},
		},
	}
	var out FlushRequest
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("got %+v, want %+v", out, *in)
	}
}

func TestReadRoundTrip(t *testing.T) {
	req := &ReadRequest{Resource: 1, Range: extent.New(8, 16)}
	var reqOut ReadRequest
	roundTrip(t, req, &reqOut)
	if *req != reqOut {
		t.Fatalf("got %+v, want %+v", reqOut, *req)
	}
	rep := &ReadReply{End: 1 << 33, Blocks: []Block{{Range: extent.New(8, 12), SN: 2, Data: []byte("abcd")}}}
	var repOut ReadReply
	roundTrip(t, rep, &repOut)
	if !reflect.DeepEqual(*rep, repOut) {
		t.Fatalf("got %+v, want %+v", repOut, *rep)
	}
}

// TestReadReplyBodyMatchesMarshal checks a read reply built in place
// against the ReadReply it stands for: the body after the head room is
// Marshal's frame byte for byte, the SN that fill returns after reading
// lands in the block, the stripe end in the reply, and a Body decodes
// back into the same bytes. A failed fill returns its error and no
// body.
func TestReadReplyBodyMatchesMarshal(t *testing.T) {
	r := extent.New(4096, 4096+300)
	data := bytes.Repeat([]byte("xyz"), 100)
	body, err := ReadReplyBody(r, 5000, func(b []byte) (uint64, error) {
		copy(b, data)
		return 9, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Marshal(&ReadReply{End: 5000, Blocks: []Block{{Range: r, SN: 9, Data: data}}})
	if len(body.Frame) != HeadRoom+len(want) || !bytes.Equal(body.Frame[HeadRoom:], want) {
		t.Fatalf("built in place:\n%x\nmarshaled:\n%x", body.Frame[HeadRoom:], want)
	}
	if got := Marshal(body); !bytes.Equal(got, want) {
		t.Fatalf("Marshal(Body) = %x, want %x", got, want)
	}
	var back Body
	if err := Unmarshal(want, &back); err != nil || !bytes.Equal(back.Frame[HeadRoom:], want) {
		t.Fatalf("Unmarshal into a Body: %v, %x", err, back.Frame)
	}
	failed := errors.New("read failed")
	if b, err := ReadReplyBody(r, 5000, func([]byte) (uint64, error) { return 0, failed }); b != nil || !errors.Is(err, failed) {
		t.Fatalf("failed fill: got %v, %v", b, err)
	}
}

func TestMetaMessagesRoundTrip(t *testing.T) {
	cr := &CreateRequest{Path: "/a/b", StripeSize: 1 << 20, StripeCount: 4}
	var crOut CreateRequest
	roundTrip(t, cr, &crOut)
	if *cr != crOut {
		t.Fatalf("got %+v", crOut)
	}
	fr := &FileReply{FID: 7, StripeSize: 1 << 20, StripeCount: 4}
	var frOut FileReply
	roundTrip(t, fr, &frOut)
	if *fr != frOut {
		t.Fatalf("got %+v", frOut)
	}
}

func TestSmallMessagesRoundTrip(t *testing.T) {
	msgs := []struct{ in, out Msg }{
		{&ReleaseRequest{Resource: 1, LockID: 2}, &ReleaseRequest{}},
		{&TruncateRequest{Resource: 1, Size: 4097, SN: 9}, &TruncateRequest{}},
		{&DowngradeRequest{Resource: 1, LockID: 2, NewMode: 3}, &DowngradeRequest{}},
		{&RevokeBatch{Entries: []RevokeEntry{{Resource: 4, LockID: 5}}}, &RevokeBatch{}},
		{&ReportRequest{Slots: []uint32{3, 9}}, &ReportRequest{}},
		{&LockReport{Locks: []LockRecord{{Resource: 6, Client: 2, LockID: 8, Mode: 1, Range: extent.New(0, 10), SN: 77, State: 1, Flags: LockFlagHandedOff}}}, &LockReport{}},
		{&HelloRequest{NodeName: "n1", ClientID: 9}, &HelloRequest{}},
		{&HelloReply{ClientID: 9}, &HelloReply{}},
		{&Ack{}, &Ack{}},
	}
	for _, m := range msgs {
		roundTrip(t, m.in, m.out)
		if !reflect.DeepEqual(reflect.ValueOf(m.in).Elem().Interface(),
			reflect.ValueOf(m.out).Elem().Interface()) {
			t.Fatalf("%T: got %+v, want %+v", m.in, m.out, m.in)
		}
	}
}

// sameStamp compares two stamps by what they carry, not by where their
// leases are stored.
func sameStamp(a, b *Stamp) bool {
	if a == nil || b == nil {
		return a == b
	}
	view := func(s *Stamp) Stamp {
		return Stamp{Mode: s.Mode, MustFlush: s.MustFlush, Leases: s.Leases, Range: s.Range, Fanout: s.Fanout}
	}
	return reflect.DeepEqual(view(a), view(b))
}

func TestHandoffMessagesRoundTrip(t *testing.T) {
	stamp := &Stamp{Mode: 2, MustFlush: true, Leases: []Lease{{Owner: 4, LockID: 77, SN: 123}}}
	rv := &RevokeBatch{Entries: []RevokeEntry{{Resource: 9, LockID: 5, Handoff: stamp}}}
	var rvOut RevokeBatch
	roundTrip(t, rv, &rvOut)
	if len(rvOut.Entries) != 1 || rvOut.Entries[0].Resource != 9 || rvOut.Entries[0].LockID != 5 ||
		!sameStamp(rvOut.Entries[0].Handoff, stamp) {
		t.Fatalf("stamped revoke round trip = %+v", rvOut)
	}
	// A handoff is 1 tag byte, the mode, the flush obligation and one
	// 20-byte lease: no range, fan-out or count.
	if got, want := len(Marshal(rv)), 4+16+23; got != want {
		t.Fatalf("stamped revoke frame = %d bytes, want %d", got, want)
	}

	batch := &RevokeBatch{Entries: []RevokeEntry{
		{Resource: 1, LockID: 2},
		{Resource: 1, LockID: 3, Handoff: stamp},
	}}
	var batchOut RevokeBatch
	roundTrip(t, batch, &batchOut)
	if len(batchOut.Entries) != 2 || batchOut.Entries[0].Handoff != nil ||
		!sameStamp(batchOut.Entries[1].Handoff, stamp) {
		t.Fatalf("stamped batch round trip = %+v", batchOut)
	}

	// A decoded batch's stamps, and a handoff's one lease, live in its
	// entries: moving the slice keeps them.
	if e := &batchOut.Entries[1]; e.Handoff != &e.stamp || &e.Handoff.Leases[0] != &e.stamp.one[0] {
		t.Fatal("decoded stamp is not the entry's own")
	}

	req := &LockRequest{
		Resource: 1, Client: 2, Mode: 3, Range: extent.New(0, 10),
		HandoffAcks: []uint64{40, 41},
	}
	var reqOut LockRequest
	roundTrip(t, req, &reqOut)
	if !reflect.DeepEqual(*req, reqOut) {
		t.Fatalf("got %+v, want %+v", reqOut, *req)
	}

	g := &LockGrant{LockID: 77, Mode: 2, Range: extent.New(0, 10), SN: 123, Delegated: true}
	var gOut LockGrant
	roundTrip(t, g, &gOut)
	if !reflect.DeepEqual(*g, gOut) {
		t.Fatalf("got %+v, want %+v", gOut, *g)
	}

	for _, m := range []struct{ in, out Msg }{
		{&HandoffRequest{Resource: 9, LockID: 77}, &HandoffRequest{}},
		{&HandoffRequest{Resource: 9, LockID: 77, Final: true}, &HandoffRequest{}},
		{&HandoffRequest{Resource: 9, LockID: 77, Member: 12, Acks: []uint64{3}}, &HandoffRequest{}},
		{&HandoffAckRequest{Resource: 9, LockID: 77}, &HandoffAckRequest{}},
		{&AckSolicit{Resource: 9, LockID: 77}, &AckSolicit{}},
	} {
		roundTrip(t, m.in, m.out)
		if !reflect.DeepEqual(reflect.ValueOf(m.in).Elem().Interface(),
			reflect.ValueOf(m.out).Elem().Interface()) {
			t.Fatalf("%T: got %+v, want %+v", m.in, m.out, m.in)
		}
	}

	// A handoff part spends no bytes on a member: its flag byte is the
	// old Final byte.
	if got, want := len(Marshal(&HandoffRequest{Resource: 9, LockID: 77, Member: 12})),
		len(Marshal(&HandoffRequest{Resource: 9, LockID: 77}))+8; got != want {
		t.Fatalf("gather part frame = %d bytes, want %d", got, want)
	}

	// Non-canonical stamp bytes must not survive: the batch path
	// re-marshals decoded entries, so an unknown tag, or a bool byte
	// other than 0 or 1, would otherwise round-trip to a different frame.
	for _, c := range []struct {
		at  int
		val byte
	}{{20, 3}, {22, 2}} { // the tag after the count and the lock name; the flush byte after the mode
		frame := Marshal(rv)
		frame[c.at] = c.val
		var bad RevokeBatch
		if err := Unmarshal(frame, &bad); err == nil {
			t.Fatalf("non-canonical stamp byte %d at %d accepted", c.val, c.at)
		}
	}
}

// TestFanMessagesRoundTrip covers the reader fan-out's use of the one
// stamp: the gather grant with a pre-armed handback cohort, and the
// transfer that carries a cohort — to its lead, and down each hop of
// the propagation tree.
func TestFanMessagesRoundTrip(t *testing.T) {
	cohort := &Stamp{
		Mode:      1,
		MustFlush: true,
		Range:     extent.New(0, 1<<20),
		Fanout:    2,
		Leases: []Lease{
			{Owner: 5, LockID: 80, SN: 200},
			{Owner: 6, LockID: 81, SN: 200},
			{Owner: 7, LockID: 82, SN: 200},
		},
	}

	g := &LockGrant{
		LockID: 90, Mode: 4, Range: extent.New(0, 1<<20), SN: 201,
		Delegated: true, GatherParts: 3, HandBack: cohort,
	}
	var gOut LockGrant
	roundTrip(t, g, &gOut)
	if !reflect.DeepEqual(*g, gOut) {
		t.Fatalf("gather grant round trip: got %+v, want %+v", gOut, *g)
	}

	for _, ho := range []*HandoffRequest{
		{Resource: 9, Cohort: cohort},
		{Resource: 9, Cohort: &Stamp{Mode: 1, Range: cohort.Range, Fanout: 2, Leases: cohort.Leases[1:]}},
	} {
		var hoOut HandoffRequest
		roundTrip(t, ho, &hoOut)
		if hoOut.Resource != ho.Resource || !sameStamp(hoOut.Cohort, ho.Cohort) {
			t.Fatalf("cohort transfer round trip: got %+v, want %+v", hoOut, *ho)
		}
	}

	// A cohort names at least one lease and a fan-out: a frame that
	// does not would re-encode as something else.
	for _, bad := range []*Stamp{
		{Mode: 1, Range: cohort.Range, Fanout: 2},
		{Mode: 1, Range: cohort.Range, Fanout: 2, Leases: cohort.Leases[:1]},
	} {
		frame := Marshal(&HandoffRequest{Resource: 9, Cohort: bad})
		if len(bad.Leases) > 0 {
			frame[8+8+4+1+1+1+16] = 0 // the fan-out byte
		}
		var out HandoffRequest
		if err := Unmarshal(frame, &out); err == nil {
			t.Fatalf("cohort %+v accepted", out.Cohort)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var g LockGrant
	if err := Unmarshal([]byte{1, 2, 3}, &g); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

// Property: LockRequest round-trips for arbitrary field values.
func TestQuickLockRequestRoundTrip(t *testing.T) {
	f := func(res uint64, cl uint32, mode uint8, start, length uint32) bool {
		in := &LockRequest{
			Resource: res,
			Client:   cl,
			Mode:     mode,
			Range:    extent.Span(int64(start), int64(length)+1),
		}
		var out LockRequest
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		return reflect.DeepEqual(*in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary payload bytes survive a flush round trip intact.
func TestQuickFlushDataIntegrity(t *testing.T) {
	f := func(data []byte, sn uint64) bool {
		in := &FlushRequest{Resource: 1, Blocks: []Block{{
			Range: extent.Span(0, int64(len(data))+1), SN: sn, Data: data,
		}}}
		var out FlushRequest
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		return bytes.Equal(out.Blocks[0].Data, data) && out.Blocks[0].SN == sn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalFlush64K(b *testing.B) {
	data := make([]byte, 64<<10)
	m := &FlushRequest{Resource: 1, Blocks: []Block{{Range: extent.Span(0, int64(len(data))), SN: 1, Data: data}}}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Marshal(m)
	}
}

func BenchmarkUnmarshalFlush64K(b *testing.B) {
	data := make([]byte, 64<<10)
	frame := Marshal(&FlushRequest{Resource: 1, Blocks: []Block{{Range: extent.Span(0, int64(len(data))), SN: 1, Data: data}}})
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var out FlushRequest
		if err := Unmarshal(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRevokeBatchAckDecodeReuses: an ack decodes into the capacity it
// already has — the lock server reuses its acks across deliveries — and
// leaves exactly the decoded entries, however many the last one held.
func TestRevokeBatchAckDecodeReuses(t *testing.T) {
	three := Marshal(&RevokeBatchAck{Acked: []RevokeEntry{{Resource: 1, LockID: 2}, {Resource: 1, LockID: 3}, {Resource: 4, LockID: 5}}})
	one := Marshal(&RevokeBatchAck{Acked: []RevokeEntry{{Resource: 9, LockID: 8}}})
	none := Marshal(&RevokeBatchAck{})
	var ack RevokeBatchAck
	if err := UnmarshalMsg(three, &ack); err != nil || len(ack.Acked) != 3 || !reflect.DeepEqual(ack.Acked[2], RevokeEntry{Resource: 4, LockID: 5}) {
		t.Fatalf("three acks: %+v, %v", ack.Acked, err)
	}
	backing := &ack.Acked[:1][0]
	if err := UnmarshalMsg(one, &ack); err != nil || len(ack.Acked) != 1 || !reflect.DeepEqual(ack.Acked[0], RevokeEntry{Resource: 9, LockID: 8}) {
		t.Fatalf("one ack: %+v, %v", ack.Acked, err)
	}
	if &ack.Acked[0] != backing {
		t.Fatal("a smaller ack did not reuse the capacity it had")
	}
	if err := UnmarshalMsg(none, &ack); err != nil || len(ack.Acked) != 0 {
		t.Fatalf("no acks: %+v, %v", ack.Acked, err)
	}
	if !RaceEnabled {
		if a := testing.AllocsPerRun(100, func() { UnmarshalMsg(three, &ack) }); a != 0 {
			t.Errorf("decoding into a reused ack: %.1f allocs, want 0", a)
		}
	}
}
