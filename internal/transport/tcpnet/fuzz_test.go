package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzFrameStream throws arbitrary bytes at the frame scanner — the
// code that decodes a batched writev stream back into individual
// frames. Whatever the input, the scanner must not panic, must not
// allocate more than the stream can back, and must consume frames
// whose combined size is bounded by the input.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	// Two back-to-back frames, as a coalesced batch would produce.
	f.Add([]byte{0, 0, 0, 1, 'x', 0, 0, 0, 2, 'y', 'z'})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var scratch [4]byte
		var consumed int
		for {
			msg, err := readFrame(br, &scratch)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errFrameTooLarge) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			consumed += 4 + len(msg)
			if consumed > len(data) {
				t.Fatalf("decoded %d framed bytes from a %d byte stream", consumed, len(data))
			}
		}
	})
}

// FuzzFrameStreamRoundTrip encodes frames the way successive Sends lay
// them out (prefix, payload, prefix, payload, ...), splits
// the stream at an arbitrary point into two reads, and asserts the
// scanner returns exactly the original frames.
func FuzzFrameStreamRoundTrip(f *testing.F) {
	f.Add([]byte("hello"), []byte(""), 3)
	f.Add([]byte{}, []byte{1, 2, 3}, 0)
	f.Fuzz(func(t *testing.T, a, b []byte, split int) {
		var stream []byte
		for _, p := range [][]byte{a, b} {
			stream = binary.BigEndian.AppendUint32(stream, uint32(len(p)))
			stream = append(stream, p...)
		}
		if split < 0 {
			split = 0
		}
		if split > len(stream) {
			split = len(stream)
		}
		br := bufio.NewReader(io.MultiReader(bytes.NewReader(stream[:split]), bytes.NewReader(stream[split:])))
		var scratch [4]byte
		for i, want := range [][]byte{a, b} {
			got, err := readFrame(br, &scratch)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d corrupted: got %q want %q", i, got, want)
			}
		}
		if _, err := readFrame(br, &scratch); !errors.Is(err, io.EOF) {
			t.Fatalf("trailing data after %d frames: %v", 2, err)
		}
	})
}
