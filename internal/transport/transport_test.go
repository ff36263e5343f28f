package transport_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ccpfs/internal/sim"
	"ccpfs/internal/transport"
	"ccpfs/internal/transport/memnet"
	"ccpfs/internal/transport/tcpnet"
	"ccpfs/internal/wire"
)

// fabric constructs a network and returns a dialable address for it.
type fabric struct {
	name string
	mk   func(t *testing.T) transport.Network
}

func fabrics() []fabric {
	return []fabric{
		{"memnet", func(t *testing.T) transport.Network { return memnet.New(sim.Fast()) }},
		{"tcpnet", func(t *testing.T) transport.Network { return tcpnet.New() }},
	}
}

func listenAddr(f fabric) string {
	if f.name == "tcpnet" {
		return "127.0.0.1:0"
	}
	return "server"
}

func TestRoundTrip(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			done := make(chan error, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					done <- err
					return
				}
				defer c.Close()
				msg, err := c.Recv(context.Background())
				if err != nil {
					done <- err
					return
				}
				done <- c.Send(context.Background(), append([]byte("echo:"), msg...))
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Send(context.Background(), []byte("hello")); err != nil {
				t.Fatal(err)
			}
			reply, err := c.Recv(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if string(reply) != "echo:hello" {
				t.Fatalf("reply = %q", reply)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOrderingPreserved(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const n = 200
			recvd := make(chan []byte, n)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				for i := 0; i < n; i++ {
					m, err := c.Recv(context.Background())
					if err != nil {
						return
					}
					recvd <- m
				}
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < n; i++ {
				if err := c.Send(context.Background(), []byte(fmt.Sprintf("msg-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				m := <-recvd
				want := fmt.Sprintf("msg-%04d", i)
				if string(m) != want {
					t.Fatalf("message %d = %q, want %q", i, m, want)
				}
			}
		})
	}
}

// pooledFrame returns msg in a pooled buffer, as the rpc layer builds
// its frames.
func pooledFrame(msg []byte) []byte {
	b := wire.GetBuf(len(msg))
	copy(b, msg)
	return b
}

// scribblePool draws n buffers of each size from the pools, overwrites
// them and puts them back. A frame a Conn recycled before it was done
// with it would be among them.
func scribblePool(n int, sizes ...int) {
	for i := 0; i < n; i++ {
		for _, size := range sizes {
			b := wire.GetBuf(size)
			for j := range b {
				b[j] = 'X'
			}
			wire.PutBuf(b)
		}
	}
}

// TestSenderBufferReuse checks the send half of the buffer contract:
// Send takes the frame, and the buffer is reused only through its pool,
// once the Conn is done with it. The sender hands each frame over and
// never touches it again, then reuses the pool's buffers of that size
// hard; the receiver must see every frame as sent.
func TestSenderBufferReuse(t *testing.T) {
	const size = 4<<10 + 55
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, size) }
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const frames = 16
			got := make(chan []byte, frames)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				for i := 0; i < frames; i++ {
					m, err := c.Recv(context.Background())
					if err != nil {
						return
					}
					got <- m
				}
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < frames; i++ {
				if err := c.Send(context.Background(), pooledFrame(fill(i))); err != nil {
					t.Fatal(err)
				}
				scribblePool(4, size)
			}
			for i := 0; i < frames; i++ {
				select {
				case m := <-got:
					if !bytes.Equal(m, fill(i)) {
						t.Fatalf("frame %d corrupted: starts %q", i, m[:8])
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("frame %d not delivered", i)
				}
			}
		})
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			srv := <-accepted
			srv.Close()
			// Peer close surfaces as ErrClosed on our Recv, possibly after
			// draining nothing.
			deadline := time.After(2 * time.Second)
			errc := make(chan error, 1)
			go func() {
				_, err := c.Recv(context.Background())
				errc <- err
			}()
			select {
			case err := <-errc:
				if err != transport.ErrClosed {
					t.Fatalf("Recv error = %v, want ErrClosed", err)
				}
			case <-deadline:
				t.Fatal("Recv did not observe peer close")
			}
		})
	}
}

func TestDialUnknownAddressFails(t *testing.T) {
	net := memnet.New(sim.Fast())
	if _, err := net.Dial("nobody"); err == nil {
		t.Fatal("dialing unknown memnet address succeeded")
	}
}

func TestMemnetDuplicateListen(t *testing.T) {
	net := memnet.New(sim.Fast())
	l, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen("a"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	l.Close()
	// Address is free again after close.
	if _, err := net.Listen("a"); err != nil {
		t.Fatalf("re-listen after close failed: %v", err)
	}
}

func TestMemnetLatency(t *testing.T) {
	hw := sim.Hardware{RTT: 20 * time.Millisecond}
	net := memnet.New(hw)
	l, _ := net.Listen("s")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			m, err := c.Recv(context.Background())
			if err != nil {
				return
			}
			if err := c.Send(context.Background(), m); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Send(context.Background(), []byte("ping"))
	if _, err := c.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 18*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~20ms", rtt)
	}
}

func TestMemnetBandwidth(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100ms to transmit.
	hw := sim.Hardware{NetBandwidth: 10e6}
	net := memnet.New(hw)
	l, _ := net.Listen("s")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(context.Background()); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Send(context.Background(), make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("1 MB at 10 MB/s transmitted in %v", elapsed)
	}
}

func TestConcurrentSenders(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const senders, each = 8, 50
			counts := make(chan int, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				seen := 0
				for seen < senders*each {
					if _, err := c.Recv(context.Background()); err != nil {
						break
					}
					seen++
				}
				counts <- seen
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := c.Send(context.Background(), []byte(fmt.Sprintf("%d:%d", s, i))); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			if got := <-counts; got != senders*each {
				t.Fatalf("received %d messages, want %d", got, senders*each)
			}
		})
	}
}

// TestSendBatch sends a batch of frames of mixed sizes back to back on
// every fabric and asserts the peer receives each frame individually,
// in order, intact — including an empty frame in the middle of the
// batch. Send takes each frame: the sender reuses the pools' buffers of
// their sizes at once, and the frames must still arrive as sent.
func TestSendBatch(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			want := [][]byte{bytes.Repeat([]byte("alpha"), 100), {}, []byte("gamma-longer-frame"), []byte("d")}
			got := make(chan [][]byte, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				var out [][]byte
				for range want {
					m, err := c.Recv(context.Background())
					if err != nil {
						return
					}
					out = append(out, m)
				}
				got <- out
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, m := range want {
				if err := c.Send(context.Background(), pooledFrame(m)); err != nil {
					t.Fatal(err)
				}
			}
			scribblePool(4, len(want[0]), len(want[2]))
			select {
			case out := <-got:
				for i := range want {
					if !bytes.Equal(out[i], want[i]) {
						t.Fatalf("frame %d: got %q want %q", i, out[i], want[i])
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("batch not delivered")
			}
		})
	}
}

// TestSendBatchConcurrentWithSends interleaves batches of three frames,
// each sent back to back by one goroutine, from many goroutines; every
// frame must arrive exactly once, intact, and each goroutine's frames in
// the order it sent them.
func TestSendBatchConcurrentWithSends(t *testing.T) {
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const senders, each = 6, 30
			total := senders * each
			got := make(chan map[string]int, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				seen := make(map[string]int, total)
				next := make([]int, senders)
				for i := 0; i < total; i++ {
					m, err := c.Recv(context.Background())
					if err != nil {
						return
					}
					seen[string(m)]++
					var s, k int
					fmt.Sscanf(string(m), "%d:%d", &s, &k)
					if s < 0 || s >= senders || k != next[s] {
						t.Errorf("frame %q arrived out of its sender's order", m)
						return
					}
					next[s]++
				}
				got <- seen
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < each; i += 3 {
						// A batch of three frames per round.
						for k := i; k < i+3; k++ {
							if err := c.Send(context.Background(), []byte(fmt.Sprintf("%d:%d", s, k))); err != nil {
								t.Errorf("send: %v", err)
								return
							}
						}
					}
				}(s)
			}
			wg.Wait()
			select {
			case seen := <-got:
				for s := 0; s < senders; s++ {
					for i := 0; i < each; i++ {
						k := fmt.Sprintf("%d:%d", s, i)
						if seen[k] != 1 {
							t.Fatalf("frame %s seen %d times", k, seen[k])
						}
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("frames not delivered")
			}
		})
	}
}

// TestReceivedFrameOwnedByCaller is the receive half of the buffer
// contract, per transport: a frame Recv returned belongs to the caller
// until the caller recycles it. The receiver keeps the first frame and
// recycles every later one as it arrives (wire.PutBuf — under -race that
// also overwrites it), while the sender builds every frame in a fresh
// pooled buffer and hands it over, so the pool's buffers of the frame's
// class are in constant reuse on both sides; the kept frame must still
// read as sent at the end, and every later frame must read as sent when
// it arrives.
func TestReceivedFrameOwnedByCaller(t *testing.T) {
	const (
		frames = 64
		size   = 64<<10 + 55 // a 64 KiB flush frame: one pool class, constant reuse
	)
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size) }
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			net := f.mk(t)
			l, err := net.Listen(listenAddr(f))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			errc := make(chan error, 1)
			go func() {
				errc <- func() error {
					c, err := l.Accept()
					if err != nil {
						return err
					}
					defer c.Close()
					var kept []byte
					for i := 0; i < frames; i++ {
						m, err := c.Recv(context.Background())
						if err != nil {
							return err
						}
						if !bytes.Equal(m, fill(i)) {
							return fmt.Errorf("frame %d arrived corrupted (starts %x)", i, m[:4])
						}
						if i == 0 {
							kept = m
						} else {
							wire.PutBuf(m)
						}
					}
					if !bytes.Equal(kept, fill(0)) {
						return fmt.Errorf("frame 0, still owned by the receiver, was overwritten by later traffic (starts %x)", kept[:4])
					}
					return nil
				}()
			}()
			c, err := net.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < frames; i++ {
				// A frame per send, as the rpc layer builds them.
				if err := c.Send(context.Background(), pooledFrame(fill(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})
	}
}
