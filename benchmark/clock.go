package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The machine clock. The box this benchmark was built on is a two-thread
// slice of a shared host whose speed wanders by tens of per cent over minutes
// (README, "Noise floor"): identical runs half an hour apart read 580k and
// 350k txn/s on ycsb_c_mem. Every workload slows and speeds up with it, and so
// does a fixed reference task that has nothing to do with the program under
// test: two concurrent raw-TCP 16-byte ping-pongs over the loopback, which
// keep both hardware threads in system calls, scheduler wake-ups and cache
// misses much as a transaction does (correlation with throughput −0.87 to
// −0.93 on all four workloads). So the benchmark times that task next to
// every measured window and reports times in reference seconds: a second in
// which the reference round trip takes twice refRoundTripUs counts as half a
// second. The reference task is this file's own code, so a change to the
// program under test cannot move it; raw values are reported beside the
// calibrated ones.
const (
	refRoundTripUs = 15.0 // one round trip on this box in a quiet hour
	clockRounds    = 5
	clockPings     = 4000 // per round and connection; a tick takes about a third of a second
)

// echoPair is one loopback connection whose far end echoes what it reads.
type echoPair struct {
	conn   net.Conn
	echoed chan error // the echo goroutine's result, sent once
	buf    []byte
}

func openEchoPair() (*echoPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	// The kernel completes a loopback handshake from the listener's backlog,
	// so dialling before accepting does not block.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.(*net.TCPConn).SetNoDelay(true)
	far.(*net.TCPConn).SetNoDelay(true)
	p := &echoPair{conn: conn, echoed: make(chan error, 1), buf: make([]byte, 16)}
	go func() {
		defer far.Close()
		buf := make([]byte, len(p.buf))
		for {
			if _, err := io.ReadFull(far, buf); err != nil {
				if err == io.EOF { // the near end closed: the normal way out
					err = nil
				}
				p.echoed <- err
				return
			}
			if _, err := far.Write(buf); err != nil {
				p.echoed <- err
				return
			}
		}
	}()
	return p, nil
}

func (p *echoPair) pingPong(n int) error {
	for i := 0; i < n; i++ {
		if _, err := p.conn.Write(p.buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(p.conn, p.buf); err != nil {
			return err
		}
	}
	return nil
}

// close ends the echo goroutine and waits for it.
func (p *echoPair) close() error {
	p.conn.Close()
	return <-p.echoed
}

type machineClock struct {
	pairs [2]*echoPair
}

func newMachineClock() (*machineClock, error) {
	m := &machineClock{}
	for i := range m.pairs {
		p, err := openEchoPair()
		if err != nil {
			m.close()
			return nil, fmt.Errorf("machine clock: %w", err)
		}
		m.pairs[i] = p
	}
	return m, nil
}

func (m *machineClock) close() {
	for _, p := range m.pairs {
		if p != nil {
			p.close()
		}
	}
}

// roundTripUs is one tick: the median over clockRounds rounds of the mean
// round-trip time of the two connections ping-ponging at once.
func (m *machineClock) roundTripUs() (float64, error) {
	var firstErr error
	us := medianOf(clockRounds, func() float64 {
		var (
			wg   sync.WaitGroup
			ns   [2]float64
			errs [2]error
		)
		for i, p := range m.pairs {
			wg.Add(1)
			go func(i int, p *echoPair) {
				defer wg.Done()
				t0 := time.Now()
				errs[i] = p.pingPong(clockPings)
				ns[i] = float64(time.Since(t0)) / clockPings
			}(i, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return (ns[0] + ns[1]) / 2 / 1e3
	})
	if firstErr != nil {
		return 0, fmt.Errorf("machine clock: %w", firstErr)
	}
	return us, nil
}
