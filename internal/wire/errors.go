package wire

import (
	"context"
	"errors"
	"fmt"
)

// ErrorCode classifies an RPC failure so callers can branch on the
// failure class instead of matching error strings. Codes travel on the
// wire as a single byte in error replies, so both ends of a connection
// agree on the classification.
type ErrorCode uint8

// Error codes. CodeUnknown is the zero value: an error the sender did
// not (or could not) classify.
const (
	CodeUnknown ErrorCode = iota
	// CodeTimeout: the operation's deadline expired before it completed.
	CodeTimeout
	// CodeCanceled: the caller canceled the operation.
	CodeCanceled
	// CodeShuttingDown: the node is draining and no longer admits new
	// operations; the caller should fail over or give up cleanly.
	CodeShuttingDown
	// CodeNotOwner: the resource is not served by this node (stale
	// placement or misrouted request).
	CodeNotOwner
	// CodeStale: the lock or handle the request names no longer exists
	// (already released, absorbed, or recovered away).
	CodeStale
	// CodeInvalid: the request is malformed or rejected by validation.
	CodeInvalid
)

// String returns the code's stable name.
func (c ErrorCode) String() string {
	switch c {
	case CodeTimeout:
		return "timeout"
	case CodeCanceled:
		return "canceled"
	case CodeShuttingDown:
		return "shutting down"
	case CodeNotOwner:
		return "not owner"
	case CodeStale:
		return "stale"
	case CodeInvalid:
		return "invalid"
	default:
		return "unknown"
	}
}

// Error is a typed wire error: a failure class plus a human-readable
// message. It is what rpc delivers for remote handler failures and for
// local deadline/cancellation outcomes, replacing the earlier
// stringly-typed remote errors.
type Error struct {
	Code ErrorCode
	Msg  string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Msg == "" {
		return "wire: " + e.Code.String()
	}
	return e.Msg
}

// Is reports whether target matches this error. Two wire errors match
// when their codes match (so errors.Is(err, wire.ErrTimeout) branches on
// the class, not the message), and the timeout/cancel codes additionally
// match the corresponding context sentinels so callers that test
// errors.Is(err, context.DeadlineExceeded) keep working.
func (e *Error) Is(target error) bool {
	if t, ok := target.(*Error); ok {
		return t.Code == e.Code
	}
	switch e.Code {
	case CodeTimeout:
		return target == context.DeadlineExceeded
	case CodeCanceled:
		return target == context.Canceled
	}
	return false
}

// Sentinel errors, one per failure class. Compare with errors.Is; the
// match is by code, so a decoded remote error with its own message still
// matches its sentinel.
var (
	ErrTimeout      = &Error{Code: CodeTimeout, Msg: "wire: deadline exceeded"}
	ErrCanceled     = &Error{Code: CodeCanceled, Msg: "wire: canceled"}
	ErrShuttingDown = &Error{Code: CodeShuttingDown, Msg: "wire: node shutting down"}
	ErrNotOwner     = &Error{Code: CodeNotOwner, Msg: "wire: resource not owned by this node"}
	ErrStale        = &Error{Code: CodeStale, Msg: "wire: stale lock or handle"}
	ErrInvalid      = &Error{Code: CodeInvalid, Msg: "wire: invalid request"}
)

// Errorf builds a typed error with a formatted message.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the failure class of err: the code of the outermost
// wire.Error in its chain, or the class implied by a context sentinel,
// or CodeUnknown.
func CodeOf(err error) ErrorCode {
	var we *Error
	if errors.As(err, &we) {
		return we.Code
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	}
	return CodeUnknown
}

// FromContext converts a context error into its typed wire form,
// preserving unrelated errors as-is. It is what the RPC layer returns
// when a call's context fires.
func FromContext(err error) error {
	switch err {
	case context.DeadlineExceeded:
		return ErrTimeout
	case context.Canceled:
		return ErrCanceled
	}
	return err
}

// EncodeError appends err's classification and message to an encoder,
// the payload of a statusErr RPC reply.
func EncodeError(e *Encoder, err error) {
	e.U8(uint8(CodeOf(err)))
	e.String(err.Error())
}

// DecodeError reconstructs the typed error from a statusErr payload.
func DecodeError(d *Decoder) error {
	code := ErrorCode(d.U8())
	msg := d.String()
	if d.Err() != nil {
		return &Error{Code: CodeUnknown, Msg: "wire: malformed remote error"}
	}
	return &Error{Code: code, Msg: msg}
}
