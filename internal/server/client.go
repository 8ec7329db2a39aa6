package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Client is a multiplexing protocol client: one TCP connection carrying any
// number of concurrent sessions. Each session is synchronous (one request
// outstanding at a time, from one goroutine); different sessions may be
// driven from different goroutines concurrently.
type Client struct {
	nc net.Conn

	// wmu serializes writes, so that one session's frames reach the
	// connection contiguous and in order. Declared inner to the
	// session-table lock so a future register-and-write path has one
	// legal order.
	// tebaldi:locks after server.Client.mu
	wmu sync.Mutex

	// mu guards sessions (session id - 1 -> session). Never held while
	// blocking on the network; ordered before wmu.
	mu       sync.Mutex
	sessions []*Sess

	// err is the terminal connection error: written once by the reader
	// before it closes readerDone, read only after readerDone is closed.
	err        error
	readerDone chan struct{}
}

// Dial connects to a tebaldi-server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	return wrap(nc, err)
}

// NewClient wraps an established connection (tests use net.Pipe or an
// in-process listener).
func NewClient(nc net.Conn) *Client {
	c, _ := wrap(nc, nil)
	return c
}

func wrap(nc net.Conn, err error) (*Client, error) {
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{nc: nc, readerDone: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; blocked calls fail with the close error.
func (c *Client) Close() error {
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// readLoop hands each response frame to the session waiting for it. Close
// closes the conn; the blocked read fails and the loop returns, closing
// readerDone.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	fr := frameReader{r: bufio.NewReader(c.nc)}
	var m Message
	for {
		if err := fr.next(&m); err != nil {
			c.err = fmt.Errorf("server: connection lost: %w", err)
			return
		}
		var s *Sess
		c.mu.Lock()
		if i := m.SID - 1; i < uint32(len(c.sessions)) { // sid 0 wraps past the end
			s = c.sessions[i]
		}
		c.mu.Unlock()
		// A response for a session with no call waiting (e.g. a protocol
		// error the server attributed to sid 0) is dropped; the affected
		// call fails via the connection error path when the server hangs
		// up.
		if s != nil && s.awaiting.CompareAndSwap(true, false) {
			m.Value = bytes.Clone(m.Value) // the caller keeps it; fr reuses its buffer
			s.resp <- m
		}
	}
}

// Session opens a new session (one transaction at a time) on the
// connection. Sessions are cheap — an id, a response slot and a send
// buffer — and live as long as the Client.
func (c *Client) Session() *Sess {
	s := &Sess{c: c, resp: make(chan Message, 1)}
	c.mu.Lock()
	c.sessions = append(c.sessions, s)
	s.id = uint32(len(c.sessions))
	c.mu.Unlock()
	return s
}

// Sess is one session. Methods must be called from a single goroutine.
//
// Begin and Put do not touch the network: they queue their frame (one the
// server executes in order and never answers) and return nil. Get, Commit
// and Abort send what is queued together with their own frame in one Write
// and wait for the one reply, which reports the first error any of those
// requests met — so a failed Begin or Put surfaces at the session's next
// Get, Commit or Abort, the transaction is over once any call has returned a
// server error, and a Put takes its lock when it is sent, not when it returns.
type Sess struct {
	c  *Client
	id uint32

	// resp carries the reply to the one call in flight; the reader sends
	// only after winning awaiting, which the caller sets before it writes.
	resp     chan Message
	awaiting atomic.Bool

	// out holds the encoded frames not yet written.
	out []byte
}

// writeThrough is the size of queued frames beyond which Begin and Put write
// them out instead of holding them for the next Get, Commit or Abort: a
// transaction of a million Puts does not sit in client memory.
const writeThrough = 4096

// queue appends a BEGIN or PUT, which the server does not answer, to the
// session's unsent frames.
func (s *Sess) queue(req *Message) error {
	req.SID = s.id
	s.out = appendFrame(s.out, req)
	if len(s.out) < writeThrough {
		return nil
	}
	return s.send()
}

// send writes the unsent frames in one Write.
func (s *Sess) send() error {
	s.c.wmu.Lock()
	_, err := s.c.nc.Write(s.out)
	s.c.wmu.Unlock()
	s.out = recycle(s.out)
	return err
}

// roundTrip sends the unsent frames and req, and waits for req's response.
func (s *Sess) roundTrip(req *Message) (Message, error) {
	c := s.c
	req.SID = s.id
	s.out = appendFrame(s.out, req)
	s.awaiting.Store(true)
	if err := s.send(); err != nil {
		s.awaiting.Store(false)
		select {
		case <-c.readerDone:
			err = c.err // the write failed because the connection is gone: say why
		default:
		}
		return Message{}, err
	}
	var m Message
	select {
	case m = <-s.resp:
	case <-c.readerDone:
		select {
		case m = <-s.resp: // the reply arrived before the connection died
		default:
			return Message{}, c.err
		}
	}
	if m.Type == MsgErr {
		return Message{}, &WireError{Code: m.Code, Msg: m.ErrMsg}
	}
	return m, nil
}

// Begin opens a transaction of the given registered type on this session.
func (s *Sess) Begin(typ string, part uint64) error {
	return s.queue(&Message{Type: MsgBegin, TxnType: typ, Part: part})
}

// Get reads a key; found is false when the key is absent at the snapshot.
func (s *Sess) Get(table, row string) (value []byte, found bool, err error) {
	m, err := s.roundTrip(&Message{Type: MsgGet, Key: core.K(table, row)})
	if err != nil {
		return nil, false, err
	}
	return m.Value, m.Present, nil
}

// Put writes a key. The value is copied; the caller may reuse it.
func (s *Sess) Put(table, row string, value []byte) error {
	return s.queue(&Message{Type: MsgPut, Key: core.K(table, row), Value: value})
}

// Commit commits the session's transaction. On error the transaction is
// gone either way; retryable errors satisfy core.IsRetryable via WireError.
func (s *Sess) Commit() error {
	_, err := s.roundTrip(&Message{Type: MsgCommit})
	return err
}

// Abort rolls the session's transaction back.
func (s *Sess) Abort() error {
	_, err := s.roundTrip(&Message{Type: MsgAbort})
	return err
}
