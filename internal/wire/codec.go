// Package wire defines every RPC message exchanged in ccPFS and a
// compact binary codec for them. The prototype in the paper rides on
// CaRT/Mercury; here each message marshals to a flat little-endian frame
// so the same bytes travel over both the in-process simulated fabric and
// real TCP.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

var (
	// ErrTruncated reports a frame shorter than its declared contents.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrTrailing reports a frame longer than its message: the decode
	// succeeded and left bytes unread. (A failed decode consumes its
	// frame, so it never reports this.)
	ErrTrailing = errors.New("wire: trailing bytes")
)

// Encoder appends primitive values to a buffer. The zero value is ready
// to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated for n bytes.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded frame.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes32 appends a length-prefixed byte slice (max 4 GiB-1).
func (e *Encoder) Bytes32(b []byte) {
	if len(b) > math.MaxUint32 {
		panic("wire: slice too large")
	}
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Slot appends n bytes of unspecified contents and returns them for the
// caller to fill: the data of a message built in place (Body).
func (e *Encoder) Slot(n int) []byte {
	l := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:l+n]
	return e.buf[l : l+n : l+n]
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	if len(s) > math.MaxUint32 {
		panic("wire: string too large")
	}
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads primitive values from a frame. Errors are sticky: after
// the first failure every read returns the zero value, and Err reports
// the failure. A failure also consumes the rest of the frame, so "read
// to the end" and "no error" are one test for Unmarshal: a decode that
// stopped short of the end left trailing bytes; one that reached it
// returns Err.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a frame for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns the sticky error, or an error if unread bytes remain.
func (d *Decoder) Finish() error {
	if d.off != len(d.buf) {
		return ErrTrailing
	}
	return d.err
}

// fail records the first decode error and consumes the frame.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.buf)
}

func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf)-d.off < n {
		d.fail(ErrTruncated)
		return false
	}
	return true
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a boolean byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// StrictBool reads a boolean byte, rejecting values other than 0 and 1.
// Messages whose frames must re-encode byte-identically (the batched
// revocation path re-marshals decoded entries) use it so a non-canonical
// encoding cannot survive a round trip.
func (d *Decoder) StrictBool() bool {
	v := d.U8()
	if v > 1 && d.err == nil {
		d.fail(fmt.Errorf("wire: invalid bool byte %d", v))
	}
	return v == 1
}

// Bytes32 reads a length-prefixed byte slice. The result aliases the
// frame; callers that retain it past the frame's lifetime must copy.
func (d *Decoder) Bytes32() []byte {
	n := int(d.U32())
	if !d.need(n) {
		return nil
	}
	v := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

// Len32 reads a collection length and validates it against a per-element
// lower bound so a corrupt length cannot trigger a huge allocation.
func (d *Decoder) Len32(minElemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if minElemSize > 0 && n > (len(d.buf)-d.off)/minElemSize {
		d.fail(ErrTruncated)
		return 0
	}
	return n
}
