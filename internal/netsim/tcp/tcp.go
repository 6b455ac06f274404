// Package tcp is a real-socket implementation of the netsim.Transport
// contract: every node listens on a loopback TCP port, requests and
// responses travel as binary frames, and the coordinator keeps a small
// per-destination connection pool. It exists to prove the engine's
// envelope encoding works off in-process channels — the cluster code is
// byte-for-byte the same over Direct, Chan and TCP.
//
// Each frame is a 4-byte length prefix and one message: a tag byte per
// node request or response type, then its fields as uvarints and the
// types package's binary row codec (see codec.go for the grammar). There
// is one wire path and no reflection-based fallback.
//
// Contract deviations, both documented at the Config surface:
//
//   - Errors are flattened to strings on the wire, so errors.Is matching
//     of node-side sentinel errors does not survive the hop. Fault
//     injection (whose machinery classifies wrapped error values) is
//     therefore rejected with this transport.
//   - There is no latency or timeout knob; calls block until the peer
//     answers or the connection breaks.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"joinview/internal/netsim"
)

// Per-connection buffer sizes: the socket read buffer, and the largest
// frame buffer a connection keeps between messages (a bigger frame gets a
// one-off buffer, so a rare bulk scan does not pin memory per connection).
const (
	readBufSize  = 4 << 10
	keepFrameCap = 16 << 10
)

// wire is one end of a connection: the socket, its read buffer and the
// reusable frame buffer. It is used by one goroutine at a time.
type wire struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte
}

func newWire(c net.Conn) *wire {
	return &wire{c: c, r: bufio.NewReaderSize(c, readBufSize)}
}

// send encodes v as one frame and writes it with a single call. An
// encoding failure writes nothing and leaves the connection usable.
func (w *wire) send(v any) error {
	b, err := appendFrame(w.buf[:0], v)
	w.keep(b)
	if err != nil {
		return err
	}
	_, err = w.c.Write(b)
	return err
}

// recv reads one frame and decodes it. Decoded messages copy everything
// they hold out of the frame, so the buffer is reused at once.
func (w *wire) recv() (any, error) {
	b := w.buf[:0]
	if cap(b) < 4 {
		b = make([]byte, 0, readBufSize)
	}
	b = b[:4]
	if _, err := io.ReadFull(w.r, b); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxFrame {
		return nil, fmt.Errorf("tcp: frame of %d bytes exceeds %d", n, maxFrame)
	}
	if total := 4 + int(n); cap(b) < total {
		b = append(make([]byte, 0, total), b...)
	}
	b = b[:4+int(n)]
	w.keep(b)
	if _, err := io.ReadFull(w.r, b[4:]); err != nil {
		return nil, err
	}
	return decodeFrame(b)
}

// keep retains b as the next frame buffer unless it grew past
// keepFrameCap.
func (w *wire) keep(b []byte) {
	if cap(b) <= keepFrameCap {
		w.buf = b[:0]
	}
}

// server is one node's listening side. The handler mutex serializes
// request execution per node — the same discipline the Chan transport's
// per-node goroutine provides — while different nodes execute
// concurrently.
type server struct {
	ln net.Listener
	h  netsim.Handler
	mu sync.Mutex // serializes handler execution
	wg sync.WaitGroup
}

func (s *server) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			w := newWire(conn)
			for {
				req, err := w.recv()
				if err != nil {
					return // peer closed or stream broken
				}
				resp, err := s.handle(req)
				if err != nil {
					resp = remoteError(err.Error())
				}
				err = w.send(resp)
				if errors.Is(err, errUnencodable) {
					// The caller still gets an answer.
					err = w.send(remoteError(err.Error()))
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

func (s *server) handle(req any) (resp any, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("tcp: handler panic: %v", r)
		}
	}()
	return s.h(req)
}

// maxConns bounds the connections to one destination. A node executes
// one request at a time, so more connections buy no parallelism; the bound
// keeps a wide scatter (one goroutine per delta tuple) from dialing a
// socket per goroutine. Callers beyond it wait for a connection to return.
const maxConns = 8

// pool is a per-destination free list. Checkout is exclusive: one in-flight
// request per connection, strict request/response lockstep.
type pool struct {
	sem  chan struct{} // one token per checked-out connection
	mu   sync.Mutex
	idle []*wire
	addr string
}

func newPool(addr string) *pool {
	return &pool{sem: make(chan struct{}, maxConns), addr: addr}
}

func (p *pool) get() (*wire, error) {
	p.sem <- struct{}{}
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	nc, err := net.Dial("tcp", p.addr)
	if err != nil {
		<-p.sem
		return nil, fmt.Errorf("tcp: dial %s: %w", p.addr, err)
	}
	return newWire(nc), nil
}

// put returns a healthy connection to the free list.
func (p *pool) put(c *wire) {
	p.mu.Lock()
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	<-p.sem
}

// discard closes a broken connection and frees its slot.
func (p *pool) discard(c *wire) {
	c.c.Close()
	<-p.sem
}

func (p *pool) close() {
	p.mu.Lock()
	for _, c := range p.idle {
		c.c.Close()
	}
	p.idle = nil
	p.mu.Unlock()
}

// counters mirrors the in-package netsim accounting (that type is
// unexported): one envelope per physical delivery, logical SEND counts for
// batched requests implementing netsim.Envelope, self-deliveries free.
type counters struct {
	messages  atomic.Int64
	local     atomic.Int64
	envelopes atomic.Int64
}

func (c *counters) record(from, to int, req any) {
	c.envelopes.Add(1)
	if env, ok := req.(netsim.Envelope); ok {
		msgs, local := env.LogicalCounts(from, to)
		c.messages.Add(msgs)
		c.local.Add(local)
		return
	}
	if from == to {
		c.local.Add(1)
	} else {
		c.messages.Add(1)
	}
}

// Transport is the TCP implementation of netsim.Transport (plus
// netsim.NodeAdder).
type Transport struct {
	mu      sync.RWMutex // guards servers/pools growth and closed
	servers []*server
	pools   []*pool
	closed  bool
	ctr     counters
}

// New starts one loopback listener per handler and returns the connected
// transport.
func New(handlers []netsim.Handler) (*Transport, error) {
	t := &Transport{}
	for _, h := range handlers {
		if _, err := t.AddNode(h); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// AddNode implements netsim.NodeAdder: it starts a listener for one more
// node and returns its id.
func (t *Transport) AddNode(h netsim.Handler) (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("tcp: listen: %w", err)
	}
	s := &server{ln: ln, h: h}
	go s.serve()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		ln.Close()
		return 0, netsim.ErrClosed
	}
	t.servers = append(t.servers, s)
	t.pools = append(t.pools, newPool(ln.Addr().String()))
	return len(t.servers) - 1, nil
}

// Call implements netsim.Transport.
func (t *Transport) Call(from, to int, req any) (any, error) {
	t.mu.RLock()
	n := len(t.pools)
	if t.closed {
		t.mu.RUnlock()
		return nil, netsim.ErrClosed
	}
	if to < 0 || to >= n {
		t.mu.RUnlock()
		return nil, fmt.Errorf("netsim: destination %d out of range [0,%d)", to, n)
	}
	p := t.pools[to]
	t.mu.RUnlock()

	c, err := p.get()
	if err != nil {
		return nil, err
	}
	t.ctr.record(from, to, req)
	if err := c.send(req); err != nil {
		if errors.Is(err, errUnencodable) {
			p.put(c) // nothing was written; the connection is intact
			return nil, err
		}
		p.discard(c)
		return nil, fmt.Errorf("tcp: send to node %d: %w", to, err)
	}
	resp, err := c.recv()
	if err != nil {
		p.discard(c)
		return nil, fmt.Errorf("tcp: receive from node %d: %w", to, err)
	}
	p.put(c)
	if e, ok := resp.(remoteError); ok {
		return nil, e
	}
	return resp, nil
}

// Broadcast implements netsim.Transport: concurrent fan-out, every node
// attempted, failures joined with their node ids (the Direct/Chan error
// shape).
func (t *Transport) Broadcast(from int, req any) ([]any, error) {
	n := t.NumNodes()
	out := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for to := 0; to < n; to++ {
		wg.Add(1)
		go func(to int) {
			defer wg.Done()
			resp, err := t.Call(from, to, req)
			if err != nil {
				errs[to] = fmt.Errorf("netsim: broadcast to node %d: %w", to, err)
				return
			}
			out[to] = resp
		}(to)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// NumNodes implements netsim.Transport.
func (t *Transport) NumNodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.servers)
}

// Stats implements netsim.Transport.
func (t *Transport) Stats() netsim.Stats {
	return netsim.Stats{
		Messages:   t.ctr.messages.Load(),
		LocalCalls: t.ctr.local.Load(),
		Envelopes:  t.ctr.envelopes.Load(),
	}
}

// ResetStats implements netsim.Transport.
func (t *Transport) ResetStats() {
	t.ctr.messages.Store(0)
	t.ctr.local.Store(0)
	t.ctr.envelopes.Store(0)
}

// Close implements netsim.Transport: closes listeners, in-flight server
// goroutines and pooled client connections.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	servers, pools := t.servers, t.pools
	t.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	for _, s := range servers {
		s.ln.Close()
		s.wg.Wait()
	}
}
