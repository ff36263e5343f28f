package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ccpfs/internal/extent"
)

// allMessages returns fresh instances of every wire message.
func allMessages() []Msg {
	return []Msg{
		&Ack{},
		&LockRequest{},
		&LockGrant{},
		&ReleaseRequest{},
		&DowngradeRequest{},
		&RevokeBatch{},
		&RevokeBatchAck{},
		&HandoffRequest{},
		&HandoffAckRequest{},
		&AckSolicit{},
		&FlushRequest{},
		&ReadRequest{},
		&TruncateRequest{},
		&ReadReply{},
		&CreateRequest{},
		&OpenRequest{},
		&FileReply{},
		&HelloRequest{},
		&HelloReply{},
		&ListReply{},
		&ReportRequest{},
		&LockReport{},
		&PartitionMapReply{},
		&SlotFreezeRequest{},
		&SlotState{},
		&SlotInstall{},
	}
}

// TestDecodersNeverPanicOnGarbage feeds random byte soup to every
// message decoder: corrupt frames must fail with an error, never panic
// or allocate absurdly.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		frame := make([]byte, n)
		rng.Read(frame)
		for _, m := range allMessages() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%T panicked on %x: %v", m, frame, r)
					}
				}()
				_ = Unmarshal(frame, m) // error or success, never panic
			}()
		}
	}
}

// TestDecodersRejectTruncations: every truncation of a valid frame must
// be rejected (no silent partial decode), except prefixes that happen to
// form a complete shorter encoding — which cannot exist for these fixed
// layouts, so all must fail.
func TestDecodersRejectTruncations(t *testing.T) {
	full := Marshal(&LockRequest{
		Resource: 1, Client: 2, Mode: 3,
		Range:   extent.New(10, 20),
		Extents: []extent.Extent{extent.New(0, 5)},
	})
	for cut := 0; cut < len(full); cut++ {
		var m LockRequest
		if err := Unmarshal(full[:cut], &m); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

// TestLockReportRoundTrip covers the recovery message.
func TestLockReportRoundTrip(t *testing.T) {
	in := &LockReport{Locks: []LockRecord{
		{Resource: 1, Client: 2, LockID: 3, Mode: 4, Range: extent.New(0, extent.Inf), SN: 9, State: 1},
		{Resource: 7, Client: 2, LockID: 8, Mode: 1, Range: extent.New(5, 6), SN: 0, State: 0},
	}}
	var out LockReport
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Locks) != 2 || out.Locks[0] != in.Locks[0] || out.Locks[1] != in.Locks[1] {
		t.Fatalf("round trip = %+v", out)
	}
}

// TestListReplyRoundTrip covers the namespace listing message.
func TestListReplyRoundTrip(t *testing.T) {
	f := func(paths []string) bool {
		in := &ListReply{Paths: paths}
		var out ListReply
		if err := Unmarshal(Marshal(in), &out); err != nil {
			return false
		}
		if len(out.Paths) != len(paths) {
			return false
		}
		for i := range paths {
			if out.Paths[i] != paths[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzMessageDecode is the native-fuzzing companion to
// TestDecodersNeverPanicOnGarbage: coverage-guided byte soup against
// every message decoder. A decoder must error or succeed, never panic,
// and a successful decode must re-encode without panicking (the frames
// it produces feed the batched send path).
// TestRevokeBatchRoundTrip covers the batched revocation messages.
func TestRevokeBatchRoundTrip(t *testing.T) {
	in := &RevokeBatch{Entries: []RevokeEntry{{Resource: 7, LockID: 1}, {Resource: 7, LockID: 2}, {Resource: 9, LockID: 3}}}
	var out RevokeBatch
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Entries, in.Entries) {
		t.Fatalf("round trip = %+v", out)
	}
	ackIn := &RevokeBatchAck{Acked: in.Entries}
	var ackOut RevokeBatchAck
	if err := Unmarshal(Marshal(ackIn), &ackOut); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ackOut.Acked, ackIn.Acked) {
		t.Fatalf("ack round trip = %+v", ackOut)
	}
}

// FuzzRevokeBatchDecode is the coverage-guided companion for the
// batched revocation messages: byte soup must error or decode, never
// panic or over-allocate, and a successful decode must re-encode to an
// equivalent frame (the batch path re-marshals entries it splits).
func FuzzRevokeBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal(&RevokeBatch{}))
	f.Add(Marshal(&RevokeBatch{Entries: []RevokeEntry{{Resource: 1, LockID: 2}, {Resource: 3, LockID: 4}}}))
	f.Add(Marshal(&RevokeBatch{Entries: []RevokeEntry{{Resource: 1, LockID: 2, Handoff: &Stamp{
		Mode: 2, MustFlush: true, Leases: []Lease{{Owner: 3, LockID: 9, SN: 4}},
	}}}}))
	f.Add(Marshal(&RevokeBatch{Entries: []RevokeEntry{{Resource: 1, LockID: 2, Handoff: &Stamp{
		Mode: 1, MustFlush: true, Range: extent.New(0, 64), Fanout: 2, Leases: []Lease{
			{Owner: 3, LockID: 9, SN: 4}, {Owner: 5, LockID: 10, SN: 4},
		},
	}}}}))
	f.Add(Marshal(&RevokeBatchAck{Acked: []RevokeEntry{{Resource: 5, LockID: 6}}}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		var b RevokeBatch
		if err := Unmarshal(frame, &b); err == nil {
			if got := Marshal(&b); string(got) != string(frame) {
				t.Fatalf("RevokeBatch re-encode mismatch: %x != %x", got, frame)
			}
		}
		var a RevokeBatchAck
		if err := Unmarshal(frame, &a); err == nil {
			if got := Marshal(&a); string(got) != string(frame) {
				t.Fatalf("RevokeBatchAck re-encode mismatch: %x != %x", got, frame)
			}
		}
	})
}

// TestSlotStateRoundTrip covers the migration payload messages.
func TestSlotStateRoundTrip(t *testing.T) {
	in := &SlotInstall{Epoch: 42, State: SlotState{
		Slot:  7,
		Floor: 41,
		Resources: []SlotResource{
			{Resource: 1, NextSN: 9, Grants: 12, Locks: []LockRecord{
				{Resource: 1, Client: 2, LockID: 3, Mode: 4, Range: extent.New(0, 64), SN: 8, State: 1},
			}},
			{Resource: 5, NextSN: 0, Grants: 0},
		},
	}}
	var out SlotInstall
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 42 || out.State.Slot != 7 || out.State.Floor != 41 ||
		len(out.State.Resources) != 2 ||
		out.State.Resources[0].Locks[0] != in.State.Resources[0].Locks[0] ||
		out.State.Resources[1].NextSN != 0 {
		t.Fatalf("round trip = %+v", out)
	}

	mapIn := &PartitionMapReply{Epoch: 3, Owners: []int32{0, 1, -1, 2}}
	var mapOut PartitionMapReply
	if err := Unmarshal(Marshal(mapIn), &mapOut); err != nil {
		t.Fatal(err)
	}
	if mapOut.Epoch != 3 || len(mapOut.Owners) != 4 || mapOut.Owners[2] != -1 {
		t.Fatalf("map round trip = %+v", mapOut)
	}
}

// FuzzPartitionMsgDecode is the coverage-guided fuzzer for the
// partition-service messages (map refresh, slot freeze/install,
// slot-filtered report): byte soup must error or decode, never panic,
// and a successful decode must re-encode to the same frame (the
// migration orchestrator forwards a decoded SlotState verbatim).
func FuzzPartitionMsgDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal(&PartitionMapReply{Epoch: 1, Owners: []int32{0, 1, 2, 3}}))
	f.Add(Marshal(&SlotFreezeRequest{Slot: 9}))
	f.Add(Marshal(&SlotInstall{Epoch: 2, State: SlotState{Slot: 9, Floor: 1, Resources: []SlotResource{
		{Resource: 3, NextSN: 4, Grants: 5, Locks: []LockRecord{{Resource: 3, Client: 1, LockID: 2, Mode: 3, Range: extent.New(0, 8), SN: 4, State: 0}}},
	}}}))
	f.Add(Marshal(&ReportRequest{Slots: []uint32{1, 2, 3}}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, m := range []Msg{&PartitionMapReply{}, &SlotFreezeRequest{}, &SlotState{}, &SlotInstall{}, &ReportRequest{}} {
			if err := Unmarshal(frame, m); err == nil {
				if got := Marshal(m); string(got) != string(frame) {
					t.Fatalf("%T re-encode mismatch: %x != %x", m, got, frame)
				}
			}
		}
	})
}

func FuzzMessageDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal(&LockRequest{Resource: 1, Client: 2, Mode: 3, Range: extent.New(10, 20)}))
	f.Add(Marshal(&FlushRequest{Resource: 9, Blocks: []Block{{Range: extent.New(0, 4), SN: 7, Data: []byte{1, 2, 3, 4}}}}))
	f.Add(Marshal(&HelloReply{}))
	cohort := &Stamp{Mode: 1, MustFlush: true, Range: extent.New(0, 1<<20), Fanout: 2, Leases: []Lease{
		{Owner: 5, LockID: 80, SN: 200}, {Owner: 6, LockID: 81, SN: 200}, {Owner: 7, LockID: 82, SN: 200},
	}}
	f.Add(Marshal(&HandoffRequest{Resource: 9, Cohort: cohort}))
	f.Add(Marshal(&HandoffRequest{Resource: 9, LockID: 80, Member: 70, Acks: []uint64{70, 71}}))
	f.Add(Marshal(&AckSolicit{Resource: 9, LockID: 80}))
	f.Add(Marshal(&LockGrant{LockID: 90, Mode: 4, Range: extent.New(0, 1<<20), SN: 201, Delegated: true, GatherParts: 3, HandBack: cohort}))
	f.Add(Marshal(&RevokeBatch{Entries: []RevokeEntry{{Resource: 9, LockID: 5, Handoff: &Stamp{
		Mode: 4, MustFlush: true, Leases: []Lease{{Owner: 5, LockID: 80, SN: 200}},
	}}}}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, m := range allMessages() {
			if err := Unmarshal(frame, m); err != nil {
				continue
			}
			var e Encoder
			m.Encode(&e)
		}
	})
}
