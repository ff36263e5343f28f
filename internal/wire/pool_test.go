package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ccpfs/internal/extent"
)

// TestClassBounds checks the two class functions against the definition
// they shortcut: classFor(n) is the smallest class whose capacity holds
// n, classUnder(c) the largest a capacity c can fully serve — so a
// buffer a miss allocated (capacity classCap(classFor(n))) is filed
// where the same Get looks.
func TestClassBounds(t *testing.T) {
	sizes := []int{0, 1, 255, 256, 257}
	for i := 0; i < numClasses; i++ {
		c := classCap(i)
		sizes = append(sizes, 1<<(minClassBits+i)-1, 1<<(minClassBits+i), 1<<(minClassBits+i)+1, c-1, c, c+1)
	}
	sizes = append(sizes, 1<<26)
	for _, n := range sizes {
		wantFor := -1
		for i := 0; i < numClasses; i++ {
			if n <= classCap(i) {
				wantFor = i
				break
			}
		}
		if got := classFor(n); got != wantFor {
			t.Errorf("classFor(%d) = %d, want %d", n, got, wantFor)
		}
		wantUnder := -1
		for i := numClasses - 1; i >= 0; i-- {
			if n >= classCap(i) {
				wantUnder = i
				break
			}
		}
		if got := classUnder(n); got != wantUnder {
			t.Errorf("classUnder(%d) = %d, want %d", n, got, wantUnder)
		}
		if i := classFor(n); i >= 0 && classUnder(classCap(i)) != i {
			t.Errorf("a class-%d buffer (for n = %d) is filed under class %d", i, n, classUnder(classCap(i)))
		}
	}
}

// TestPayloadPlusHeaderStaysInClass is the trap the old classes fell
// into: they sat exactly on the payload sizes, so a 64 KiB or 1 MiB
// payload plus a few dozen header bytes asked for the next class up (a
// 1 MiB flush frame got a 16 MiB buffer).
func TestPayloadPlusHeaderStaysInClass(t *testing.T) {
	const hdr = 11 + 16 + blockHeaderLen // rpc header, FlushRequest header, one block
	for _, payload := range []int{4 << 10, 64 << 10, 1 << 20, 16 << 20} {
		if a, b := classFor(payload), classFor(payload+hdr); a != b {
			t.Errorf("payload %d is class %d but payload+header is class %d", payload, a, b)
		}
	}
}

func TestAllocBudgetPoolCapacity(t *testing.T) {
	// The 16 MiB trap: no Get may be handed more than twice what it
	// asked for, hit or miss.
	for n := 4 << 10; n <= 20<<20; n += n/3 + 17 {
		b := GetBuf(n)
		if len(b) != n || cap(b) > 2*n {
			t.Fatalf("GetBuf(%d): len %d cap %d", n, len(b), cap(b))
		}
		PutBuf(b)
		e := BodyEncoder(n)
		if f := n + HeadRoom; len(e.Bytes()) != HeadRoom || cap(e.buf) < f || cap(e.buf) > 2*f {
			t.Fatalf("BodyEncoder(%d): len %d cap %d", n, len(e.Bytes()), cap(e.buf))
		}
		PutBuf(TakeFrame(e))
	}
}

func TestAllocBudgetPoolReuse(t *testing.T) {
	if RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// A buffer that a miss allocated must come back from the pool for
	// the same request, for frames and plain buffers alike, at the sizes
	// the data path uses: payload + header.
	for _, n := range []int{30, 4<<10 + 55, 64<<10 + 55, 1<<20 + 55} {
		PutBuf(GetBuf(n))
		PutBuf(TakeFrame(BodyEncoder(n)))
		if a := testing.AllocsPerRun(50, func() { PutBuf(GetBuf(n)) }); a != 0 {
			t.Errorf("GetBuf/PutBuf(%d): %.1f allocs per round trip, want 0", n, a)
		}
		if a := testing.AllocsPerRun(50, func() { PutBuf(TakeFrame(BodyEncoder(n))) }); a != 0 {
			t.Errorf("BodyEncoder/TakeFrame/PutBuf(%d): %.1f allocs per round trip, want 0", n, a)
		}
	}
}

func TestAllocBudgetUnmarshal(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	frame := Marshal(&ReleaseRequest{Resource: 7, LockID: 9})
	var back ReleaseRequest
	if a := testing.AllocsPerRun(100, func() {
		if err := Unmarshal(frame, &back); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Unmarshal of a fixed-size message: %.1f allocs, want 0", a)
	}
}

// TestAllocBudgetUnmarshalOnStack pins Unmarshal's inlining, which the
// handlers' allocation budget rests on: with it, a handler's
// `var req LockRequest; Unmarshal(p, &req)` keeps both the message and
// the decoder on its stack. (Unmarshal's cost sits at the inliner's
// budget; a line more and every handler pays two allocations a
// request.) A caller that holds the message as a Msg gets the pooled
// decoder of UnmarshalMsg instead.
func TestAllocBudgetUnmarshalOnStack(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	frame := Marshal(&LockRequest{Resource: 7, Client: 3, Mode: 2, Range: extent.New(0, 4096)})
	var sum uint64
	if a := testing.AllocsPerRun(100, func() {
		var req LockRequest
		if err := Unmarshal(frame, &req); err != nil {
			t.Fatal(err)
		}
		sum += req.Resource
	}); a != 0 {
		t.Errorf("Unmarshal into a local LockRequest: %.1f allocs, want 0", a)
	}
	var rep Msg = &LockRequest{}
	if a := testing.AllocsPerRun(100, func() {
		if err := UnmarshalMsg(frame, rep); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("UnmarshalMsg through the Msg interface: %.1f allocs, want 0", a)
	}
	if sum == 0 {
		t.Fatal("decoded nothing")
	}
}

// TestAllocBudgetUnmarshalFlush: UnmarshalFlush decodes what Unmarshal
// decodes, rejects what it rejects, and decodes a one-block flush into
// a one-block stack buffer with no allocation; a longer request gets an
// array of its own.
func TestAllocBudgetUnmarshalFlush(t *testing.T) {
	blocks := []Block{
		{Range: extent.New(0, 5), SN: 1, Data: []byte("hello")},
		{Range: extent.New(4096, 4100), SN: 2, Data: []byte("abcd")},
	}
	for n := 0; n <= len(blocks); n++ {
		frame := Marshal(&FlushRequest{Resource: 9, Client: 3, Blocks: blocks[:n]})
		var want FlushRequest
		if err := Unmarshal(frame, &want); err != nil {
			t.Fatal(err)
		}
		var one [1]Block
		got, err := UnmarshalFlush(frame, one[:0])
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d blocks: UnmarshalFlush = %+v, %v; Unmarshal = %+v", n, got, err, want)
		}
		if _, err := UnmarshalFlush(append(frame, 0), one[:0]); !errors.Is(err, ErrTrailing) {
			t.Fatalf("%d blocks and a trailing byte: err %v, want ErrTrailing", n, err)
		}
	}
	if RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	frame := Marshal(&FlushRequest{Resource: 9, Client: 3, Blocks: blocks[:1]})
	if a := testing.AllocsPerRun(100, func() {
		var one [1]Block
		if req, err := UnmarshalFlush(frame, one[:0]); err != nil || len(req.Blocks) != 1 {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("UnmarshalFlush of one block into a stack buffer: %.1f allocs, want 0", a)
	}
}

// TestEncodedSizeExact pins Sizer to the encoder: a frame sized by it
// must hold the message without growing, whatever the block mix.
func TestEncodedSizeExact(t *testing.T) {
	blocks := []Block{
		{Range: extent.New(0, 5), SN: 1, Data: []byte("hello")},
		{Range: extent.New(4096, 4096+70000), SN: 2, Data: bytes.Repeat([]byte{7}, 70000)},
		{Range: extent.New(1<<20, 1<<20), SN: 3},
	}
	for n := 0; n <= len(blocks); n++ {
		for _, m := range []interface {
			Msg
			Sizer
		}{&FlushRequest{Resource: 9, Client: 3, Blocks: blocks[:n]}, &ReadReply{Blocks: blocks[:n]}} {
			if got, want := len(Marshal(m)), m.EncodedSize(); got != want {
				t.Errorf("%T with %d blocks: encoded %d bytes, EncodedSize %d", m, n, got, want)
			}
		}
	}
}

// TestReadReplyRelease checks the FrameHolder half of the ownership
// rules: the reply keeps the frame its blocks alias until Release.
func TestReadReplyRelease(t *testing.T) {
	src := &ReadReply{Blocks: []Block{{Range: extent.New(0, 4), SN: 1, Data: []byte("data")}}}
	frame := GetBuf(src.EncodedSize())
	copy(frame, Marshal(src))
	var rep ReadReply
	if err := Unmarshal(frame, &rep); err != nil {
		t.Fatal(err)
	}
	rep.HoldFrame(frame)
	if string(rep.Blocks[0].Data) != "data" {
		t.Fatalf("decoded %q", rep.Blocks[0].Data)
	}
	rep.Release()
	if rep.Blocks != nil || rep.frame != nil {
		t.Fatalf("reply not empty after Release: %+v", rep)
	}
	rep.Release() // idempotent
}
