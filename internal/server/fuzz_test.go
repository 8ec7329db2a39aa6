package server

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeFrame hammers the frame decoder with arbitrary payloads.
// Invariants: never panic, never accept input that re-encodes differently
// (decode∘encode must be the identity on accepted frames), never accept a
// type byte with 0x40 set (no message type has it), and never allocate
// proportionally to a lying length prefix (enforced structurally by the
// decoder, spot-checked in TestDecodeDoesNotOverAllocate).
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(appendFrame(nil, m)[4:])
	}
	// Well-formed requests of every type with 0x40 set in the type byte:
	// 0x41 and 0x43 are the flagged BEGIN and PUT older clients sent.
	for _, m := range []*Message{
		{Type: MsgBegin, SID: 1, TxnType: "update", Part: 42},
		{Type: MsgPut, SID: 9, Key: core.K("kv", "k1"), Value: []byte("hello")},
		{Type: MsgGet, SID: 7, Key: core.K("kv", "k123")},
		{Type: MsgCommit, SID: 3},
		{Type: MsgAbort, SID: 4},
	} {
		p := appendFrame(nil, m)[4:]
		p[0] |= 0x40
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{MsgBegin})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x00}, 32))

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeFrame(payload)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil message")
			}
			return
		}
		if payload[0]&0x40 != 0 {
			t.Fatalf("accepted type byte 0x%02x", payload[0])
		}
		// Accepted frames must round-trip byte-exactly: the codec has one
		// canonical encoding per message, so decode(payload) re-encoded
		// must reproduce payload.
		re := appendFrame(nil, m)[4:]
		if !bytes.Equal(re, payload) {
			t.Fatalf("accepted frame is not canonical:\n in: % x\nout: % x", payload, re)
		}
		// And a second decode of the re-encoding must agree.
		m2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(m2)) {
			t.Fatalf("re-decode mismatch:\n a: %#v\n b: %#v", m, m2)
		}
	})
}
