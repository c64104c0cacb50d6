package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"armci/internal/cluster"
	"armci/internal/msg"
	"armci/internal/pipeline"
	"armci/internal/wire"
)

// TCPFabric runs the cluster as real goroutines whose every message —
// including between a user process and its own node's server — crosses a
// loopback TCP socket through a star router. It emulates the message path
// of a socket-based ARMCI port: the paper's cluster interconnect is
// replaced by real kernel sockets, per the reproduction substitution rule.
type TCPFabric struct {
	live

	listener net.Listener
	router   *router

	conns map[msg.Addr]*endpointConn
}

// endpointConn is an endpoint's dialed connection to the router.
type endpointConn struct {
	c       net.Conn
	writeMu sync.Mutex
	buf     []byte // reused frame buffer, guarded by writeMu
}

func (ec *endpointConn) writeFrame(f []byte) error {
	ec.writeMu.Lock()
	defer ec.writeMu.Unlock()
	return wire.WriteFrame(ec.c, f)
}

// writeMsg encodes m into the connection's reused buffer and writes the
// frame, so steady-state sends do not allocate a fresh frame each time.
func (ec *endpointConn) writeMsg(m *msg.Message) error {
	ec.writeMu.Lock()
	defer ec.writeMu.Unlock()
	ec.buf = wire.AppendEncode(ec.buf[:0], m)
	return wire.WriteFrame(ec.c, ec.buf)
}

// NewTCP builds a TCP fabric. The router listens on an ephemeral loopback
// port; everything is torn down when Run returns.
func NewTCP(cfg Config) (*TCPFabric, error) {
	f := &TCPFabric{conns: make(map[msg.Addr]*endpointConn)}
	// The TCP fabric measures real socket costs, so the cost-model
	// stage is inactive; trace, fault injection and metrics still run.
	if err := f.init("tcpnet", cfg, false); err != nil {
		return nil, err
	}
	f.pipe.SetCrashNotify(f.noteCrash)
	return f, nil
}

// Run brings up the router, connects every endpoint, executes the actors
// to completion and tears the network down.
func (f *TCPFabric) Run() (err error) {
	// cluster.Listen reports the address on failure and rides out
	// ephemeral-port rebind races, so repeated -count runs never flake.
	f.listener, err = cluster.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	f.router = newRouter(f.listener)
	go f.router.serve()
	defer func() {
		f.listener.Close()
		f.router.closeAll()
	}()

	all := append(append([]actorSpec(nil), f.users...), f.servers...)
	for _, a := range all {
		conn, derr := net.Dial("tcp", f.listener.Addr().String())
		if derr != nil {
			return fmt.Errorf("tcpnet: dial router: %w", derr)
		}
		ec := &endpointConn{c: conn}
		if werr := ec.writeFrame(wire.EncodeHello(a.addr)); werr != nil {
			return fmt.Errorf("tcpnet: hello: %w", werr)
		}
		f.conns[a.addr] = ec
		go f.readLoop(a.addr, conn)
	}
	// Wait for the router to have registered every endpoint before any
	// actor sends, so no frame races ahead of its destination's hello.
	if werr := f.router.waitRegistered(len(all), 10*time.Second); werr != nil {
		return werr
	}

	f.start = time.Now()
	return f.runActors(func(e liveEnv) Env { return &tcpEnv{e, f.conns[e.addr]} }, nil)
}

// readLoop drains frames arriving for one endpoint into its mailbox.
func (f *TCPFabric) readLoop(a msg.Addr, conn net.Conn) {
	for {
		body, err := wire.ReadFrame(conn)
		if err != nil {
			return // connection closed at teardown
		}
		m, err := wire.Decode(body)
		if err != nil {
			f.panics <- fmt.Errorf("tcpnet: endpoint %v received corrupt frame: %w", a, err)
			return
		}
		f.deliver(m)
	}
}

// router forwards frames between endpoint connections.
type router struct {
	ln net.Listener

	mu    sync.Mutex
	conns map[msg.Addr]*endpointConn
	n     int
}

func newRouter(ln net.Listener) *router {
	return &router{ln: ln, conns: make(map[msg.Addr]*endpointConn)}
}

func (r *router) serve() {
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		go r.serveConn(c)
	}
}

func (r *router) serveConn(c net.Conn) {
	hello, err := wire.ReadFrame(c)
	if err != nil {
		c.Close()
		return
	}
	addr, err := wire.DecodeHello(hello)
	if err != nil {
		c.Close()
		return
	}
	ec := &endpointConn{c: c}
	r.mu.Lock()
	r.conns[addr] = ec
	r.n++
	r.mu.Unlock()
	var fr []byte // reused re-frame buffer; this loop is the only writer
	for {
		body, err := wire.ReadFrame(c)
		if err != nil {
			return
		}
		dst, err := wire.PeekDst(body)
		if err != nil {
			return
		}
		r.mu.Lock()
		out := r.conns[dst]
		r.mu.Unlock()
		if out == nil {
			continue // destination gone at teardown
		}
		// Re-frame and forward.
		fr = append(fr[:0], byte(len(body)), byte(len(body)>>8), byte(len(body)>>16), byte(len(body)>>24))
		fr = append(fr, body...)
		if err := out.writeFrame(fr); err != nil {
			continue
		}
	}
}

func (r *router) waitRegistered(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		got := r.n
		r.mu.Unlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tcpnet: only %d of %d endpoints registered with router", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *router) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ec := range r.conns {
		ec.c.Close()
	}
}

// tcpEnv is the Env of one TCP-fabric actor.
type tcpEnv struct {
	liveEnv
	ec *endpointConn // this actor's connection to the router
}

var _ Env = (*tcpEnv)(nil)

func (e *tcpEnv) Send(to msg.Addr, m *msg.Message) {
	e.send(to, m, func(d pipeline.Delivery) {
		if err := e.ec.writeMsg(d.Msg); err != nil {
			panic(fmt.Sprintf("tcpnet: send %v -> %v: %v", e.addr, to, err))
		}
	})
}
