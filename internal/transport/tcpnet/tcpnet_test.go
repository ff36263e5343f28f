package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

func TestOversizedSendRejected(t *testing.T) {
	tn := New()
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go l.Accept()
	c, err := tn.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := make([]byte, MaxFrame+1)
	if err := c.Send(context.Background(), huge); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestOversizedInboundFrameFailsConnection(t *testing.T) {
	tn := New()
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recvErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			recvErr <- err
			return
		}
		_, err = c.Recv(context.Background())
		recvErr <- err
	}()
	// A raw TCP client declaring a hostile frame length.
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	raw.Write(hdr[:])
	select {
	case err := <-recvErr:
		if err == nil {
			t.Fatal("hostile frame length accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not reject hostile frame")
	}
}

func TestDialRefused(t *testing.T) {
	tn := New()
	if _, err := tn.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestListenerCloseMapsToErrClosed(t *testing.T) {
	tn := New()
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if err != transport.ErrClosed {
			t.Fatalf("Accept after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept not unblocked")
	}
}

func TestEmptyFrame(t *testing.T) {
	tn := New()
	l, _ := tn.Listen("127.0.0.1:0")
	defer l.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		m, err := c.Recv(context.Background())
		if err == nil {
			got <- m
		}
	}()
	c, err := tn.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if len(m) != 0 {
			t.Fatalf("empty frame read as %d bytes", len(m))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("empty frame not delivered")
	}
}

// TestFrameSurvivesSplitRead feeds one frame to a receiver in many tiny
// TCP writes — the length prefix split mid-way, the payload dribbled a
// few bytes at a time — and asserts Recv reassembles it intact.
func TestFrameSurvivesSplitRead(t *testing.T) {
	tn := New()
	l, err := tn.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan []byte, 1)
	recvErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			recvErr <- err
			return
		}
		defer c.Close()
		m, err := c.Recv(context.Background())
		if err != nil {
			recvErr <- err
			return
		}
		got <- m
	}()
	nc, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var frame []byte
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	// Split inside the 4-byte prefix, then dribble the payload.
	chunks := [][]byte{frame[:2], frame[2:5], frame[5:6]}
	for off := 6; off < len(frame); off += 100 {
		end := off + 100
		if end > len(frame) {
			end = len(frame)
		}
		chunks = append(chunks, frame[off:end])
	}
	for _, ch := range chunks {
		if _, err := nc.Write(ch); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case m := <-got:
		if !bytes.Equal(m, payload) {
			t.Fatalf("frame corrupted across split reads: got %d bytes", len(m))
		}
	case err := <-recvErr:
		t.Fatalf("recv: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for reassembled frame")
	}
}

// TestFrameRecycledOnlyAfterWritten pins who recycles a sent frame and
// when: the conn puts it back to its pool once it is fully written, and
// not a moment before, and leaves a frame whose write was cut off
// mid-frame to the collector. The conn runs over net.Pipe, whose writes
// block until the reader takes the bytes, so the test holds the write
// mid-frame. Recycling is observed through the pool (GetBuf hands the
// same array back) and, in -race builds, where sync.Pool drops items at
// random, through PutBuf's 0xDB poisoning.
func TestFrameRecycledOnlyAfterWritten(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one sync.Pool shard
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const size = 64 << 10
	recycled := func(frame []byte) bool {
		if wire.RaceEnabled {
			return frame[size-1] == 0xDB
		}
		b := wire.GetBuf(size) // kept from the pool: the next probe must not see it again
		return unsafe.SliceData(b) == unsafe.SliceData(frame)
	}
	for _, abort := range []bool{false, true} {
		a, b := net.Pipe()
		c := newConn(a)
		frame := wire.GetBuf(size)
		for i := range frame {
			frame[i] = byte(i)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- c.Send(ctx, frame) }()
		head := make([]byte, 4+size/2)
		if _, err := io.ReadFull(b, head); err != nil {
			t.Fatal(err)
		}
		if !wire.RaceEnabled && recycled(frame) {
			t.Fatalf("abort=%v: frame back in the pool while half of it is unwritten", abort)
		}
		if abort {
			cancel() // the poisoned deadline cuts the writev off mid-frame
		} else if _, err := io.ReadFull(b, make([]byte, size/2)); err != nil {
			t.Fatal(err)
		}
		err := <-done
		if abort != (err != nil) {
			t.Fatalf("abort=%v: Send returned %v", abort, err)
		}
		if got := recycled(frame); got == abort {
			t.Fatalf("abort=%v: frame recycled = %v after Send returned", abort, got)
		}
		cancel()
		a.Close()
		b.Close()
	}
}

// TestConcurrentSendsOneCanceledMidFrame: several senders share the
// connection while one of them is canceled in the middle of its frame.
// The conn runs over net.Pipe, whose writes block until the reader takes
// the bytes, so the test holds the big frame's write mid-frame. Every
// frame on the wire before the cut is whole and each successful Send's
// frame is among them, the canceled Send returns its context's error,
// and the connection is poisoned: the stream ends at the cut, so the
// peer's Recv fails instead of reading later frames as the rest of the
// cut one, and the senders queued behind the cut and any later Send
// fail.
func TestConcurrentSendsOneCanceledMidFrame(t *testing.T) {
	const senders, big = 8, 64 << 10
	a, b := net.Pipe()
	c := newConn(a)
	defer c.Close()
	defer b.Close()
	frame := func(s string) []byte {
		m := wire.GetBuf(len(s))
		copy(m, s)
		return m
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := make(chan error, 1)
	go func() { cut <- c.Send(ctx, wire.GetBuf(big)) }()
	errs := make([]error, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = c.Send(context.Background(), frame(fmt.Sprintf("frame %d", s)))
		}()
	}

	// Whole frames up to the big one's length prefix, then half of it.
	var got []string
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(b, hdr[:]); err != nil {
			t.Fatal(err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == big {
			break
		}
		m := make([]byte, n)
		if _, err := io.ReadFull(b, m); err != nil {
			t.Fatal(err)
		}
		got = append(got, string(m))
	}
	if _, err := io.ReadFull(b, make([]byte, big/2)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-cut; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Send returned %v, want context.Canceled", err)
	}
	wg.Wait()
	if rest, err := io.ReadAll(b); err != nil || len(rest) != 0 {
		t.Fatalf("stream after the cut: %d more bytes, err %v; want it closed at the cut", len(rest), err)
	}
	for s, err := range errs {
		want := fmt.Sprintf("frame %d", s)
		if sent, n := err == nil, countOf(got, want); sent && n != 1 || !sent && n != 0 {
			t.Fatalf("%q: Send returned %v, frame on the wire %d times", want, err, n)
		}
	}
	if err := c.Send(context.Background(), frame("late")); err == nil {
		t.Fatal("Send on a connection cut mid-frame succeeded")
	}
}

func countOf(list []string, s string) int {
	n := 0
	for i := range list {
		if list[i] == s {
			n++
		}
	}
	return n
}
