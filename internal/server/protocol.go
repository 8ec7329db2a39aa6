// Package server is Tebaldi's networked front end: a TCP listener speaking a
// length-prefixed binary protocol (BEGIN/GET/PUT/COMMIT/ABORT) with
// connection multiplexing — many independent sessions per connection, each
// holding at most one open transaction — plus a Prometheus-style /metrics
// endpoint and graceful drain. cmd/tebaldi-server wraps it as a binary;
// internal/loadgen drives it open-loop.
//
// Wire format (all integers big-endian):
//
//	frame   := u32 length | payload            (length = len(payload), ≤ MaxFrame)
//	payload := u8 msgType | u32 sessionID | body
//
// Client→server bodies:
//
//	BEGIN  := u16 len | type bytes | u64 part
//	GET    := key
//	PUT    := key | u32 len | value bytes
//	COMMIT := (empty)
//	ABORT  := (empty)
//	key    := u16 len | table bytes | u16 len | row bytes
//
// Server→client bodies:
//
//	OK    := (empty)
//	VALUE := u8 present | [u32 len | value bytes]
//	ERR   := u8 code | u16 len | message bytes
//
// Each session processes its requests in order. Whether a request is
// answered depends on its type alone: BEGIN and PUT never are, and GET,
// COMMIT and ABORT are answered exactly once; after any ERR reply the session
// has no transaction open. A BEGIN or PUT that fails ends the session's
// transaction; the server keeps that first error, skips the BEGINs and PUTs
// that follow, and answers the session's next GET, COMMIT or ABORT with the
// error instead of executing it. So a client sends [BEGIN|GET] and
// [PUT|COMMIT] as two writes and waits for two replies — Sess does — and is
// still told every error. Leaving BEGIN and PUT unanswered changes when an
// outcome is reported, not which serial orders the engine admits. Responses
// from different sessions interleave freely on the connection.
//
// Error codes map back to the engine's abort reasons so a remote client can
// make the same retry decision an in-process one would (see CodeError /
// core.IsRetryable).
package server

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// MaxFrame bounds a frame payload. A decoder must reject larger length
// prefixes before allocating, so a malicious header cannot balloon memory.
const MaxFrame = 1 << 20

// Message types. Requests have the high bit clear, responses set.
const (
	MsgBegin  = 0x01
	MsgGet    = 0x02
	MsgPut    = 0x03
	MsgCommit = 0x04
	MsgAbort  = 0x05

	MsgOK    = 0x81
	MsgValue = 0x82
	MsgErr   = 0x83
)

// Error codes carried by MsgErr. Codes below 0x10 are transaction aborts
// mirroring internal/core's reasons; codes from 0x10 up are protocol or
// server-state errors (never retryable).
const (
	CodeConflict = 0x01 // core.ErrConflict — retryable
	CodeTimeout  = 0x02 // core.ErrTimeout — retryable
	CodeCascade  = 0x03 // core.ErrCascade — retryable
	CodePivot    = 0x04 // core.ErrPivot — retryable
	// 0x05 is unassigned. Older peers read it as a reconfiguration abort,
	// which no longer exists, so it is not to be given another meaning.
	CodeAborted = 0x06 // other core.ErrAborted — retryable
	CodeUser    = 0x07 // core.ErrUserAbort — not retried

	CodeBadRequest  = 0x10 // malformed or out-of-place message
	CodeNoTxn       = 0x11 // GET/PUT/COMMIT/ABORT without an open transaction
	CodeTxnOpen     = 0x12 // BEGIN while the session already has a transaction
	CodeUnknownType = 0x13 // core.ErrUnknownType: BEGIN with a type the CC tree does not place
	CodeShutdown    = 0x14 // server is draining; no new transactions
	CodeInternal    = 0x15 // unexpected server-side failure
	CodeDurability  = 0x16 // core.ErrDurability — the log failed; no commit is acknowledged until recovery
)

// Message is one decoded frame. Fields beyond Type and SID are populated
// per message type; unused ones are zero.
type Message struct {
	Type byte
	SID  uint32

	// BEGIN.
	TxnType string
	Part    uint64

	// GET / PUT.
	Key core.Key

	// PUT / VALUE. For decoded frames Value aliases the input buffer —
	// which a connection's reader reuses for its next frame — so copy
	// before retaining.
	Value   []byte
	Present bool

	// ERR.
	Code   byte
	ErrMsg string
}

// ErrFrame reports a malformed frame. Decoders return it (never panic) for
// truncated, oversized, or otherwise garbage input.
var ErrFrame = errors.New("server: malformed frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// WireError is the client-side representation of a MsgErr response. It
// unwraps to the matching engine abort reason, so errors.Is(err,
// core.ErrConflict) and core.IsRetryable work across the wire.
type WireError struct {
	Code byte
	Msg  string
}

// Error implements error.
func (e *WireError) Error() string {
	return fmt.Sprintf("server error 0x%02x: %s", e.Code, e.Msg)
}

// Unwrap maps the code back to the core error it was encoded from, nil for
// protocol-level codes.
func (e *WireError) Unwrap() error { return CodeError(e.Code) }

// ErrorCode maps a transaction error to its wire code.
func ErrorCode(err error) byte {
	switch {
	case errors.Is(err, core.ErrUserAbort):
		return CodeUser
	case errors.Is(err, core.ErrTimeout):
		return CodeTimeout
	case errors.Is(err, core.ErrCascade):
		return CodeCascade
	case errors.Is(err, core.ErrPivot):
		return CodePivot
	case errors.Is(err, core.ErrConflict):
		return CodeConflict
	case errors.Is(err, core.ErrAborted):
		return CodeAborted
	case errors.Is(err, core.ErrDurability):
		return CodeDurability
	case errors.Is(err, core.ErrUnknownType):
		return CodeUnknownType
	default:
		return CodeInternal
	}
}

// CodeError maps a wire code back to the engine error it stands for (nil
// for the other protocol-level codes, which have no engine counterpart).
func CodeError(code byte) error {
	switch code {
	case CodeConflict:
		return core.ErrConflict
	case CodeTimeout:
		return core.ErrTimeout
	case CodeCascade:
		return core.ErrCascade
	case CodePivot:
		return core.ErrPivot
	case CodeAborted:
		return core.ErrAborted
	case CodeUser:
		return core.ErrUserAbort
	case CodeDurability:
		return core.ErrDurability
	case CodeUnknownType:
		return core.ErrUnknownType
	default:
		return nil
	}
}
