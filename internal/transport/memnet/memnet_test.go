package memnet

import (
	"context"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

func TestBacklogFull(t *testing.T) {
	net := New(sim.Fast())
	l, err := net.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Fill the accept backlog without accepting.
	var conns []transport.Conn
	for i := 0; i < 200; i++ {
		c, err := net.Dial("s")
		if err != nil {
			// Backlog exhausted: expected before 200.
			if len(conns) < 64 {
				t.Fatalf("backlog rejected after only %d conns: %v", len(conns), err)
			}
			for _, c := range conns {
				c.Close()
			}
			return
		}
		conns = append(conns, c)
	}
	t.Fatal("backlog never filled")
}

func TestHardwareAccessor(t *testing.T) {
	hw := sim.Hardware{RTT: time.Second}
	if New(hw).Hardware() != hw {
		t.Fatal("Hardware accessor wrong")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	net := New(sim.Fast())
	l, _ := net.Listen("s")
	defer l.Close()
	go l.Accept()
	c, err := net.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Send(context.Background(), []byte("x")); err != transport.ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if _, err := c.Recv(context.Background()); err != transport.ErrClosed {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
}

// TestRecvReturnsSentArray pins the zero-copy hop: Send takes the
// sender's frames and queues them as they are, so the peer's Recv
// returns the very arrays the sender built.
func TestRecvReturnsSentArray(t *testing.T) {
	net := New(sim.Fast())
	l, _ := net.Listen("s")
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := net.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer := <-accepted
	defer peer.Close()
	sent := [][]byte{wire.GetBuf(64 << 10), wire.GetBuf(300), wire.GetBuf(1 << 20)}
	ctx := context.Background()
	for _, m := range sent {
		if err := c.Send(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got, err := peer.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || unsafe.SliceData(got) != unsafe.SliceData(want) {
			t.Fatalf("frame %d: Recv returned a different array than the one sent", i)
		}
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	net := New(sim.Fast())
	l, _ := net.Listen("s")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if err != transport.ErrClosed {
			t.Fatalf("Accept after close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept not unblocked by Close")
	}
	if l.Close() != nil {
		t.Fatal("double close errored")
	}
}

func TestManyParallelConnections(t *testing.T) {
	net := New(sim.Fast())
	l, _ := net.Listen("s")
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				for {
					m, err := c.Recv(context.Background())
					if err != nil {
						return
					}
					c.Send(context.Background(), m)
				}
			}(c)
		}
	}()
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			c, err := net.Dial("s")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			msg := []byte(fmt.Sprintf("conn-%d", i))
			if err := c.Send(context.Background(), msg); err != nil {
				errs <- err
				return
			}
			got, err := c.Recv(context.Background())
			if err != nil {
				errs <- err
				return
			}
			if string(got) != string(msg) {
				errs <- fmt.Errorf("conn %d: got %q", i, got)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
