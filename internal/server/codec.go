package server

import (
	"encoding/binary"
	"io"
)

// appendFrame encodes m as a complete frame (length prefix included) onto
// buf and returns the extended slice.
func appendFrame(buf []byte, m *Message) []byte {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	buf = append(buf, m.Type)
	buf = binary.BigEndian.AppendUint32(buf, m.SID)
	switch m.Type {
	case MsgBegin:
		buf = appendString16(buf, m.TxnType)
		buf = binary.BigEndian.AppendUint64(buf, m.Part)
	case MsgGet:
		buf = appendString16(buf, m.Key.Table)
		buf = appendString16(buf, m.Key.Row)
	case MsgPut:
		buf = appendString16(buf, m.Key.Table)
		buf = appendString16(buf, m.Key.Row)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Value)))
		buf = append(buf, m.Value...)
	case MsgCommit, MsgAbort, MsgOK:
		// Empty body.
	case MsgValue:
		if m.Present {
			buf = append(buf, 1)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Value)))
			buf = append(buf, m.Value...)
		} else {
			buf = append(buf, 0)
		}
	case MsgErr:
		buf = append(buf, m.Code)
		buf = appendString16(buf, m.ErrMsg)
	}
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	return buf
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// DecodeFrame decodes one frame payload (the bytes after the u32 length
// prefix). It never panics and never allocates proportionally to claimed —
// rather than actual — input size; string/value fields alias or copy only
// bytes that are really present. Trailing garbage after a well-formed body
// is rejected.
func DecodeFrame(payload []byte) (*Message, error) {
	m := &Message{}
	if err := decodeInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeInto is DecodeFrame into a caller-owned Message, which it overwrites
// whole; the connection readers decode every frame into the same one.
func decodeInto(m *Message, payload []byte) error {
	d := decoder{buf: payload}
	*m = Message{}
	m.Type = d.u8()
	m.SID = d.u32()
	switch m.Type {
	case MsgBegin:
		m.TxnType = d.string16()
		m.Part = d.u64()
	case MsgGet:
		m.Key.Table = d.string16()
		m.Key.Row = d.string16()
	case MsgPut:
		m.Key.Table = d.string16()
		m.Key.Row = d.string16()
		m.Value = d.bytes32()
	case MsgCommit, MsgAbort, MsgOK:
		// Empty body.
	case MsgValue:
		switch d.u8() {
		case 0:
		case 1:
			m.Present = true
			m.Value = d.bytes32()
		default:
			if d.err == nil {
				return frameErr("VALUE present flag must be 0 or 1")
			}
		}
	case MsgErr:
		m.Code = d.u8()
		m.ErrMsg = d.string16()
	default:
		if d.err == nil {
			return frameErr("unknown message type 0x%02x", m.Type)
		}
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return frameErr("%d trailing bytes after 0x%02x body", len(d.buf), m.Type)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r. The length prefix is
// validated against MaxFrame before the payload buffer is allocated.
func ReadFrame(r io.Reader) (*Message, error) {
	fr := frameReader{r: r}
	m := &Message{}
	if err := fr.next(m); err != nil {
		return nil, err
	}
	return m, nil
}

// keepBuf bounds the encode and decode buffers a connection or session
// keeps between frames; a larger frame gets a buffer of its own, so one
// MaxFrame value does not pin a megabyte per connection.
const keepBuf = 64 << 10

// recycle empties an encode buffer for its next use, or drops it when a large
// frame grew it past keepBuf.
func recycle(buf []byte) []byte {
	if cap(buf) > keepBuf {
		return nil
	}
	return buf[:0]
}

// frameReader reads the frames of one connection into one reused payload
// buffer, owned by the goroutine that calls next.
type frameReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// next reads one frame and decodes it into m. m.Value aliases the reader's
// buffer and is overwritten by the following call.
func (fr *frameReader) next(m *Message) error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > MaxFrame {
		return frameErr("frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if n < 5 { // type + sid minimum
		return frameErr("frame length %d below minimum header", n)
	}
	payload := fr.buf
	if n > cap(payload) {
		payload = make([]byte, max(n, 512))
		if n <= keepBuf {
			fr.buf = payload
		}
	}
	payload = payload[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return decodeInto(m, payload)
}

// decoder is a cursor over a frame payload; the first failure sticks and
// subsequent reads are no-ops, so callers can check err once at the end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = frameErr("truncated %s (%d bytes left)", what, len(d.buf))
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail("u8")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.fail(what)
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string16() string {
	n := int(d.u16())
	return string(d.take(n, "string body"))
}

func (d *decoder) u16() uint16 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 2 {
		d.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

// bytes32 reads a u32-length-prefixed byte field. The declared length is
// checked against the bytes actually present before any slicing, and the
// result aliases the payload (callers copy if they retain).
func (d *decoder) bytes32() []byte {
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.buf)) {
		d.fail("bytes body")
		return nil
	}
	return d.take(int(n), "bytes body")
}
