package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/tebaldi"
)

// Options tune a Server. There is nothing to tune yet; the limits are the
// constants below.
type Options struct{}

const (
	// maxSessionsPerConn bounds the session table of one connection. A BEGIN
	// beyond the cap is rejected with CodeBadRequest.
	maxSessionsPerConn = 1024
	// sessionQueue is the per-session request buffer. The connection reader
	// blocks once a single session has this many requests outstanding,
	// bounding memory without stalling other connections.
	sessionQueue = 16
)

// Server serves the Tebaldi wire protocol over a listener. One Server
// multiplexes any number of connections, each multiplexing any number of
// sessions; a session holds at most one open transaction and processes its
// requests in order on a dedicated goroutine, so a lock wait in one session
// never stalls another.
type Server struct {
	db      *tebaldi.DB
	metrics Metrics

	// mu guards conns and listener installation. Leaf lock: no other
	// server lock is acquired under it.
	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}

	// draining is set by Shutdown, under mu and before it closes the
	// listener, so Serve's checks under mu cannot miss it; every BEGIN
	// reads it, without the lock.
	draining atomic.Bool

	// txnsOpen and reqsInFlight drive drain: shutdown completes once both
	// reach zero (every accepted transaction resolved, every response
	// written).
	txnsOpen     atomic.Int64
	reqsInFlight atomic.Int64

	acceptDone chan struct{}
}

// New builds a Server over an open database. The caller owns db; Shutdown
// does not close it.
func New(db *tebaldi.DB, _ Options) *Server {
	return &Server{
		db:         db,
		conns:      make(map[*conn]struct{}),
		acceptDone: make(chan struct{}),
	}
}

// DB returns the database the server fronts.
func (s *Server) DB() *tebaldi.DB { return s.db }

// Serve accepts connections on ln until Shutdown closes it. It blocks; run
// it on its own goroutine. The listener is owned by the server from this
// point on. A Shutdown that ran before the goroutine got here is the same
// request arriving early: Serve closes the listener and returns nil, as it
// does after any other Shutdown. Shutdown closes the listener; Accept
// fails with net.ErrClosed and the loop returns.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	defer close(s.acceptDone)
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := &conn{
			s:        s,
			nc:       nc,
			sessions: make(map[uint32]*session),
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.metrics.ConnsAccepted.Add(1)
		s.metrics.ConnsActive.Add(1)
		go c.readLoop()
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: stop accepting, reject new BEGINs with
// CodeShutdown, wait until every in-flight request has its response written
// and every open transaction commits or aborts — then close the remaining
// connections. Sessions idle at the deadline with a transaction still open
// are force-disconnected (their transactions roll back through the normal
// disconnect path). Returns nil on a clean drain, an error on timeout. It
// returns within twice timeout: session workers still inside an engine call
// then are reported by count and left to finish on their own.
//
// A failed log (the database's Wal().Err()) ends the drain at once: no
// commit can be acknowledged any more, so there is nothing to wait for.
// Shutdown then closes the connections and returns an error wrapping the
// log failure.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.draining.Store(true)
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
		<-s.acceptDone
	}

	deadline := time.Now().Add(timeout)
	drained := false
	var logErr error
	for time.Now().Before(deadline) {
		if logErr = s.logErr(); logErr != nil {
			break
		}
		if s.txnsOpen.Load() == 0 && s.reqsInFlight.Load() == 0 {
			drained = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Close every connection; readers exit, session workers roll back
	// whatever is still open and drain. A worker blocked in the engine (a
	// lock wait, say) exits only when that call returns, so the workers are
	// waited for until the drain deadline plus timeout again, no longer.
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
	exited := make(chan struct{})
	go func() {
		for _, c := range conns {
			c.wg.Wait()
		}
		close(exited)
	}()
	var err error
	select {
	case <-exited:
	case <-time.After(time.Until(deadline.Add(timeout))):
		err = fmt.Errorf("server: %d session workers still running at shutdown; they end when their engine calls return",
			s.metrics.SessionsActive.Load())
	}
	if logErr != nil {
		return errors.Join(fmt.Errorf("server: shutdown without drain: %w", logErr), err)
	}
	if !drained {
		return errors.Join(fmt.Errorf("server: drain timed out with %d open txns, %d in-flight requests",
			s.txnsOpen.Load(), s.reqsInFlight.Load()), err)
	}
	return err
}

// logErr is the database log's sticky failure, nil without one (or without
// a log).
func (s *Server) logErr() error {
	if w := s.db.Engine().Wal(); w != nil {
		return w.Err()
	}
	return nil
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.ConnsActive.Add(-1)
}

// conn is one accepted connection: a reader goroutine that decodes frames
// and routes them to per-session workers, plus a write path serialized by
// wmu (workers write their responses directly).
type conn struct {
	s  *Server
	nc net.Conn

	// wmu serializes frame writes from the session workers and the
	// reader's protocol-error responses, and guards wbuf, the buffer every
	// reply is encoded into. Held only around appendFrame/Write; declared
	// inner to the connection registry lock so a future
	// broadcast-under-registry path stays deadlock-free.
	// tebaldi:locks after server.Server.mu
	wmu  sync.Mutex
	wbuf []byte

	// sessions is touched only by the reader goroutine (creation,
	// lookup, teardown), so it needs no lock.
	sessions map[uint32]*session

	// wg counts session workers; conn teardown and server drain wait on
	// it. The reader is not counted — it is the goroutine that closes the
	// worker queues, so it strictly outlives every enqueue.
	wg sync.WaitGroup
}

// session is one multiplexed stream on a connection. Its worker goroutine
// owns tx exclusively, satisfying the engine's one-goroutine-per-Tx rule.
type session struct {
	cn *conn
	id uint32
	q  chan Message
	tx *tebaldi.Tx

	// failed is the ERR a BEGIN or PUT earned (Type is zero while there is
	// none). It ended the transaction; it is owed to the next answered
	// request.
	failed Message
}

// readLoop drains frames from the connection until it fails: Shutdown (or
// the peer) closes the conn, the frame read fails and the loop returns.
func (c *conn) readLoop() {
	fr := frameReader{r: bufio.NewReader(c.nc)}
	var m Message
	for {
		if err := fr.next(&m); err != nil {
			if errors.Is(err, ErrFrame) {
				// Malformed frame: the length prefix may itself be
				// garbage, so the stream cannot be resynchronized —
				// report and hang up.
				c.s.metrics.ProtocolErrors.Add(1)
				c.writeMsg(&Message{Type: MsgErr, Code: CodeBadRequest, ErrMsg: err.Error()})
			}
			break
		}
		c.s.metrics.FramesRead.Add(1)
		c.dispatch(&m)
	}
	c.nc.Close()
	// Stop every session worker: closing q makes the worker roll back any
	// open transaction and exit. Only the reader sends on q, so closing
	// here is race-free.
	for _, ss := range c.sessions {
		close(ss.q)
	}
	c.wg.Wait()
	c.s.removeConn(c)
}

// dispatch routes one decoded request to its session's worker, creating the
// session on its first BEGIN. m is the reader's one Message and m.Value
// aliases its read buffer, both overwritten by the next frame, so the worker
// gets a copy of the Message and a PUT's value is copied here — the only copy
// made of it: the engine retains this slice in the version chain.
func (c *conn) dispatch(m *Message) {
	switch m.Type {
	case MsgBegin, MsgPut, MsgGet, MsgCommit, MsgAbort:
	default:
		// A response type from a client is a protocol violation.
		c.refuse(m, CodeBadRequest, fmt.Sprintf("unexpected message type 0x%02x from client", m.Type))
		return
	}
	ss := c.sessions[m.SID]
	if ss == nil {
		// A PUT opens a session like a BEGIN does: its CodeNoTxn needs a
		// session to be remembered in.
		if answered(m.Type) {
			c.refuse(m, CodeNoTxn, "no transaction: session not started with BEGIN")
			return
		}
		if len(c.sessions) >= maxSessionsPerConn {
			c.refuse(m, CodeBadRequest, "session limit reached on this connection")
			return
		}
		ss = &session{cn: c, id: m.SID, q: make(chan Message, sessionQueue)}
		c.sessions[m.SID] = ss
		c.s.metrics.SessionsActive.Add(1)
		c.wg.Add(1)
		go ss.run()
	}
	if m.Type == MsgPut {
		m.Value = bytes.Clone(m.Value)
	}
	c.s.reqsInFlight.Add(1)
	ss.q <- *m
}

// refuse answers a request the reader will not route. A BEGIN or PUT is
// counted and dropped instead: it is never answered, there is no session to
// remember the error in, and none appears before a BEGIN is accepted, so the
// sender's next GET, COMMIT or ABORT on that session id is refused as well.
func (c *conn) refuse(m *Message, code byte, msg string) {
	c.s.metrics.ProtocolErrors.Add(1)
	if answered(m.Type) {
		c.writeMsg(&Message{Type: MsgErr, SID: m.SID, Code: code, ErrMsg: msg})
	}
}

// answered reports whether a request of type typ gets a reply: every type but
// BEGIN and PUT (a response type from a client is answered with its refusal).
func answered(typ byte) bool { return typ != MsgBegin && typ != MsgPut }

func (ss *session) run() {
	c := ss.cn
	defer c.wg.Done()
	for m := range ss.q {
		if resp, reply := ss.step(&m); reply {
			resp.SID = ss.id
			c.writeMsg(&resp)
		}
		c.s.reqsInFlight.Add(-1)
	}
	if ss.tx != nil {
		// Client vanished mid-transaction: release locks and CC state.
		// Counted first: whoever sees the engine's abort finds it here.
		c.s.metrics.DisconnectAborts.Add(1)
		ss.rollback()
	}
	c.s.metrics.SessionsActive.Add(-1)
}

// step is the reply rule around handle: exactly one reply to a GET, COMMIT
// or ABORT and none to a BEGIN or PUT, whose error — which has ended the
// transaction — waits in ss.failed; while it waits, BEGINs and PUTs are
// skipped and the next answered request is answered with it instead of being
// executed.
func (ss *session) step(m *Message) (resp Message, reply bool) {
	reply = answered(m.Type)
	if ss.failed.Type != 0 {
		if reply {
			resp, ss.failed = ss.failed, Message{}
		}
		return resp, reply
	}
	resp = ss.handle(m)
	if !reply && resp.Type == MsgErr {
		ss.failed = resp
	}
	return resp, reply
}

// handle executes one request against the engine and builds the response.
// An ERR response leaves the session idle: the engine rolls back what it
// aborts, and a BEGIN inside a transaction ends that transaction.
func (ss *session) handle(m *Message) Message {
	s := ss.cn.s
	switch m.Type {
	case MsgBegin:
		if ss.tx != nil {
			ss.rollback()
			s.metrics.TxnAborts.Add(1)
			s.metrics.ProtocolErrors.Add(1)
			return errMsg(CodeTxnOpen, "BEGIN with a transaction already open on this session")
		}
		if s.draining.Load() {
			return errMsg(CodeShutdown, "server is draining")
		}
		tx, err := s.db.Begin(m.TxnType, m.Part)
		if err != nil {
			code := ErrorCode(err)
			if code == CodeUnknownType {
				s.metrics.ProtocolErrors.Add(1)
			} else {
				s.metrics.TxnAborts.Add(1)
			}
			return errMsg(code, err.Error())
		}
		ss.tx = tx
		s.txnsOpen.Add(1)
		s.metrics.TxnBegins.Add(1)
		return Message{Type: MsgOK}

	case MsgGet:
		if ss.tx == nil {
			s.metrics.ProtocolErrors.Add(1)
			return errMsg(CodeNoTxn, "GET without BEGIN")
		}
		v, err := ss.tx.Read(m.Key)
		if err != nil {
			return ss.txnError(err)
		}
		s.metrics.Reads.Add(1)
		return Message{Type: MsgValue, Present: v != nil, Value: v}

	case MsgPut:
		if ss.tx == nil {
			s.metrics.ProtocolErrors.Add(1)
			return errMsg(CodeNoTxn, "PUT without BEGIN")
		}
		// m.Value is this request's own copy (dispatch).
		if err := ss.tx.Write(m.Key, m.Value); err != nil {
			return ss.txnError(err)
		}
		s.metrics.Writes.Add(1)
		return Message{Type: MsgOK}

	case MsgCommit:
		if ss.tx == nil {
			s.metrics.ProtocolErrors.Add(1)
			return errMsg(CodeNoTxn, "COMMIT without BEGIN")
		}
		err := ss.tx.Commit()
		ss.tx = nil
		s.txnsOpen.Add(-1)
		if err != nil {
			s.metrics.TxnAborts.Add(1)
			return errMsg(ErrorCode(err), err.Error())
		}
		s.metrics.TxnCommits.Add(1)
		return Message{Type: MsgOK}

	case MsgAbort:
		if ss.tx == nil {
			s.metrics.ProtocolErrors.Add(1)
			return errMsg(CodeNoTxn, "ABORT without BEGIN")
		}
		ss.rollback()
		s.metrics.TxnAborts.Add(1)
		return Message{Type: MsgOK}
	}
	s.metrics.ProtocolErrors.Add(1)
	return errMsg(CodeBadRequest, fmt.Sprintf("unhandled message type 0x%02x", m.Type))
}

// rollback ends the session's open transaction.
func (ss *session) rollback() {
	ss.tx.Rollback(nil)
	ss.tx = nil
	ss.cn.s.txnsOpen.Add(-1)
}

// txnError finishes the session's transaction state after an engine abort
// (the engine already rolled the transaction back) and maps the error.
func (ss *session) txnError(err error) Message {
	ss.tx = nil
	ss.cn.s.txnsOpen.Add(-1)
	ss.cn.s.metrics.TxnAborts.Add(1)
	return errMsg(ErrorCode(err), err.Error())
}

func errMsg(code byte, msg string) Message {
	return Message{Type: MsgErr, Code: code, ErrMsg: msg}
}

// writeMsg encodes and writes one frame, in one Write. The frame is counted
// before it is handed to the connection, so whoever has read a reply finds it
// in FramesWritten. Write errors only mark the connection: the reader will
// notice the broken pipe on its next read and tear the connection down
// through the single teardown path.
func (c *conn) writeMsg(m *Message) {
	c.s.metrics.FramesWritten.Add(1)
	c.wmu.Lock()
	c.wbuf = appendFrame(c.wbuf, m)
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = recycle(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.nc.Close()
	}
}
