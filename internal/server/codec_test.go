package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
)

// allMessages is one representative of every wire message type, exercising
// every field incl. empty strings, empty and non-empty values.
func allMessages() []*Message {
	return []*Message{
		{Type: MsgBegin, SID: 1, TxnType: "update", Part: 42},
		{Type: MsgBegin, SID: 0, TxnType: "", Part: 0},
		{Type: MsgGet, SID: 7, Key: core.K("kv", "k123")},
		{Type: MsgGet, SID: 7, Key: core.K("", "")},
		{Type: MsgPut, SID: 9, Key: core.K("kv", "k1"), Value: []byte("hello")},
		{Type: MsgPut, SID: 9, Key: core.K("kv", "k1"), Value: []byte{}},
		{Type: MsgCommit, SID: 3},
		{Type: MsgAbort, SID: 4},
		{Type: MsgOK, SID: 5},
		{Type: MsgValue, SID: 6, Present: true, Value: []byte("world")},
		{Type: MsgValue, SID: 6, Present: true, Value: []byte{}},
		{Type: MsgValue, SID: 6, Present: false},
		{Type: MsgErr, SID: 8, Code: CodeConflict, ErrMsg: "data conflict"},
		{Type: MsgErr, SID: 8, Code: CodeShutdown, ErrMsg: ""},
		{Type: MsgErr, SID: 10, Code: CodeDurability, ErrMsg: "durability failure: write-ahead log failed"},
	}
}

// normalize maps nil and empty byte slices together for comparison.
func normalize(m *Message) *Message {
	c := *m
	if len(c.Value) == 0 {
		c.Value = nil
	}
	return &c
}

func TestRoundTripEveryMessageType(t *testing.T) {
	for _, m := range allMessages() {
		frame := appendFrame(nil, m)
		if frame[4] != m.Type {
			t.Errorf("%#v: type byte 0x%02x on the wire, want 0x%02x", m, frame[4], m.Type)
		}
		got, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("decode %#v: %v", m, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
		}
	}
}

func TestReadFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, m := range allMessages() {
		buf.Write(appendFrame(nil, m))
	}
	for _, want := range allMessages() {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Errorf("stream round trip mismatch:\n in: %#v\nout: %#v", want, got)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("trailing read: want io.EOF, got %v", err)
	}
}

func TestDecodeTruncatedAtEveryPrefix(t *testing.T) {
	for _, m := range allMessages() {
		payload := appendFrame(nil, m)[4:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeFrame(payload[:cut]); err == nil {
				t.Errorf("type 0x%02x: truncation to %d/%d bytes decoded successfully",
					m.Type, cut, len(payload))
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	for _, m := range allMessages() {
		payload := appendFrame(nil, m)[4:]
		if _, err := DecodeFrame(append(payload, 0xee)); err == nil {
			t.Errorf("type 0x%02x: trailing garbage accepted", m.Type)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                          // empty
		{0x00},                      // truncated header
		{0xff, 0, 0, 0, 1},          // unknown type
		{MsgBegin, 0, 0, 0, 1},      // begin with no body
		{MsgPut, 0, 0, 0, 1, 0xff},  // put with torn key
		{MsgErr, 0, 0, 0, 1, 0x01},  // err with no message length
		bytes.Repeat([]byte{7}, 64), // noise
	}
	for _, c := range cases {
		if m, err := DecodeFrame(c); err == nil {
			t.Errorf("garbage % x decoded to %#v", c, m)
		} else if !errors.Is(err, ErrFrame) {
			t.Errorf("garbage % x: error %v does not wrap ErrFrame", c, err)
		}
	}
}

// TestDecodeClaimedLengthOverflow feeds inner length prefixes far larger
// than the actual payload: decoding must fail without allocating for the
// claimed length.
func TestDecodeClaimedLengthOverflow(t *testing.T) {
	// PUT with a value length claiming 0xffffffff but 3 bytes present.
	payload := []byte{MsgPut, 0, 0, 0, 1}
	payload = append(payload, 0, 2, 'k', 'v') // table
	payload = append(payload, 0, 1, 'r')      // row
	payload = append(payload, 0xff, 0xff, 0xff, 0xff, 'a', 'b', 'c')
	if _, err := DecodeFrame(payload); err == nil {
		t.Fatal("oversized claimed value length accepted")
	}
	// BEGIN with a string length pointing past the end.
	payload = []byte{MsgBegin, 0, 0, 0, 1, 0xff, 0xff, 'u'}
	if _, err := DecodeFrame(payload); err == nil {
		t.Fatal("oversized claimed string length accepted")
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized frame header: want ErrFrame, got %v", err)
	}
	// Undersized (below the 5-byte type+sid minimum) must fail too.
	binary.BigEndian.PutUint32(hdr[:], 4)
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 0, 0, 0, 0))); err == nil || !errors.Is(err, ErrFrame) {
		t.Fatalf("undersized frame header: want ErrFrame, got %v", err)
	}
}

func TestWireErrorMapsToCoreErrors(t *testing.T) {
	cases := []struct {
		code      byte
		want      error
		retryable bool
	}{
		{CodeConflict, core.ErrConflict, true},
		{CodeTimeout, core.ErrTimeout, true},
		{CodeCascade, core.ErrCascade, true},
		{CodePivot, core.ErrPivot, true},
		{CodeAborted, core.ErrAborted, true},
		{CodeUser, core.ErrUserAbort, false},
		{CodeBadRequest, nil, false},
		{CodeNoTxn, nil, false},
		{CodeTxnOpen, nil, false},
		{CodeShutdown, nil, false},
		{CodeDurability, core.ErrDurability, false},
		{CodeUnknownType, core.ErrUnknownType, false},
	}
	for _, c := range cases {
		we := &WireError{Code: c.code, Msg: "x"}
		if c.want != nil && !errors.Is(we, c.want) {
			t.Errorf("code 0x%02x: errors.Is(%v) = false", c.code, c.want)
		}
		if got := core.IsRetryable(we); got != c.retryable {
			t.Errorf("code 0x%02x: IsRetryable = %v, want %v", c.code, got, c.retryable)
		}
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	for _, err := range []error{
		core.ErrConflict, core.ErrTimeout, core.ErrCascade,
		core.ErrPivot, core.ErrUserAbort,
		core.ErrDurability, core.ErrUnknownType,
	} {
		code := ErrorCode(err)
		if back := CodeError(code); !errors.Is(err, back) {
			t.Errorf("ErrorCode(%v) = 0x%02x, CodeError back = %v", err, code, back)
		}
	}
	// Tx.Commit wraps the log's own error into ErrDurability.
	if code := ErrorCode(fmt.Errorf("%w: fsync: input/output error", core.ErrDurability)); code != CodeDurability {
		t.Errorf("wrapped ErrDurability mapped to 0x%02x, want CodeDurability", code)
	}
	if code := ErrorCode(errors.New("weird")); code != CodeInternal {
		t.Errorf("unknown error mapped to 0x%02x, want CodeInternal", code)
	}
}

// TestDecodeDoesNotOverAllocate bounds allocation while decoding frames
// whose inner lengths lie: the decoder must size buffers by bytes present,
// never by the claimed length.
func TestDecodeDoesNotOverAllocate(t *testing.T) {
	payload := []byte{MsgPut, 0, 0, 0, 1}
	payload = append(payload, 0, 2, 'k', 'v')
	payload = append(payload, 0, 1, 'r')
	payload = append(payload, 0xff, 0xff, 0xff, 0xff) // claims 4 GiB, has 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrame(payload); err == nil {
			t.Fatal("lying length accepted")
		}
	})
	// A handful of small allocations (message struct, error) are fine;
	// a 4 GiB make([]byte) would explode this number's cost long before
	// the count mattered.
	if allocs > 20 {
		t.Errorf("decode of lying frame allocates %v objects", allocs)
	}
}
