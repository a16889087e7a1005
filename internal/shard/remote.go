package shard

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// RemoteOptions tunes a RemotePool. The zero value is usable: plain TCP
// dialing with a 5 s dial/handshake timeout, no per-shard deadline, a 2 s
// keepalive-pong deadline, and a 5 s cooldown before a failed worker is
// probed again.
type RemoteOptions struct {
	// Dial overrides the transport used to reach a worker address. Tests
	// inject fault-wrapped connections here; production leaves it nil
	// (TCP with DialTimeout).
	Dial func(addr string) (net.Conn, error)
	// DialTimeout bounds dialing and the handshake (default 5 s).
	DialTimeout time.Duration
	// ShardTimeout bounds one shard's round trip, from request to result
	// frame. 0 means no deadline — shards can legitimately run for a long
	// time; set it when the workload's per-shard cost is known.
	ShardTimeout time.Duration
	// PingTimeout bounds the keepalive ping that revalidates a pooled
	// connection before reuse (default 2 s).
	PingTimeout time.Duration
	// Cooldown is how long a worker that failed at the transport level is
	// skipped before being probed again (default 5 s). Workers are always
	// eligible again when no healthy worker remains.
	Cooldown time.Duration
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	return o
}

// workerConn is one established, handshaken connection to a worker.
type workerConn struct {
	c      net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	sweeps map[string]bool // the worker's registry identity from its hello
}

// errWorker classifies a shard failure that came back as an explicit
// error frame: the worker and the link are healthy, the request is not.
// Such failures do not mark the worker down.
type errWorker struct{ msg string }

func (e errWorker) Error() string { return e.msg }

// errDraining is returned when a worker announces it is draining; the
// shard must be re-dispatched elsewhere and the worker is marked down.
var errDraining = fmt.Errorf("shard: worker is draining")

// RemotePool manages connections to a static fleet of network workers
// (Server instances) and multiplexes shards over them: each in-flight
// shard uses its own connection, idle connections are pooled per worker
// and revalidated with a keepalive ping before reuse, and a worker that
// fails at the transport level is put on cooldown so subsequent shards —
// including Coordinate's retries of the failed shard — prefer healthy
// workers. It is safe for concurrent use.
type RemotePool struct {
	addrs []string
	opts  RemoteOptions

	mu     sync.Mutex
	idle   map[string][]*workerConn
	down   map[string]time.Time // worker → time it was marked down
	next   int
	closed bool
}

// NewRemotePool returns a pool over the given worker addresses. No
// connections are opened until the first shard is dispatched.
func NewRemotePool(addrs []string, opts RemoteOptions) (*RemotePool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: remote pool needs at least one worker address")
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("shard: empty worker address")
		}
		if seen[a] {
			return nil, fmt.Errorf("shard: duplicate worker address %q", a)
		}
		seen[a] = true
	}
	return &RemotePool{
		addrs: append([]string(nil), addrs...),
		opts:  opts.withDefaults(),
		idle:  make(map[string][]*workerConn),
		down:  make(map[string]time.Time),
	}, nil
}

// Runner returns the pool's shard dispatcher. Each call runs one shard on
// one worker and reports failures to the caller — it deliberately does
// not retry internally, so it slots into Coordinate's existing retry
// loop: a dead worker's shards come back as errors, the worker goes on
// cooldown, and the retry is routed to a healthy worker, preserving the
// bit-for-bit merge guarantee (a shard is a pure function of its spec,
// wherever it runs).
func (p *RemotePool) Runner() Runner {
	return func(spec ShardSpec) (ShardResult, error) {
		addr, err := p.pick()
		if err != nil {
			return ShardResult{}, err
		}
		wc, err := p.checkout(addr)
		if err != nil {
			p.markDown(addr)
			return ShardResult{}, fmt.Errorf("shard: worker %s: %w", addr, err)
		}
		if spec.Network == nil && !wc.sweeps[spec.Sweep] {
			// The handshake told us this worker's registry; failing fast
			// keeps a misdeployed fleet from burning retries one timeout
			// at a time. The connection itself is fine — pool it. Network
			// sweeps are exempt: they carry their model and need no
			// registry entry.
			p.putIdle(addr, wc)
			return ShardResult{}, fmt.Errorf("shard: worker %s does not register sweep %q", addr, spec.Sweep)
		}
		res, err := p.runShard(wc, spec)
		if err != nil {
			if _, app := err.(errWorker); app {
				// An explicit error frame: the request failed but the
				// worker answered cleanly and the stream sits at a frame
				// boundary — keep the connection, not the blame.
				p.putIdle(addr, wc)
			} else {
				wc.c.Close()
				p.markDown(addr)
			}
			return ShardResult{}, fmt.Errorf("shard: worker %s: %w", addr, err)
		}
		p.putIdle(addr, wc)
		return res, nil
	}
}

// pick chooses the next worker round-robin, skipping workers on cooldown
// while at least one healthy worker remains.
func (p *RemotePool) pick() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", fmt.Errorf("shard: remote pool is closed")
	}
	now := time.Now()
	for i := 0; i < len(p.addrs); i++ {
		addr := p.addrs[(p.next+i)%len(p.addrs)]
		if downAt, down := p.down[addr]; down && now.Sub(downAt) < p.opts.Cooldown {
			continue
		}
		p.next = (p.next + i + 1) % len(p.addrs)
		return addr, nil
	}
	// Every worker is on cooldown: probe anyway (round-robin over all),
	// so a recovering fleet is rediscovered without external help.
	addr := p.addrs[p.next%len(p.addrs)]
	p.next = (p.next + 1) % len(p.addrs)
	return addr, nil
}

func (p *RemotePool) markDown(addr string) {
	p.mu.Lock()
	p.down[addr] = time.Now()
	// Pooled connections to a down worker are stale by definition. Close
	// them after releasing the lock: Close can block on a dead peer, and
	// pick/checkout must stay responsive while it does.
	stale := p.idle[addr]
	delete(p.idle, addr)
	p.mu.Unlock()
	for _, wc := range stale {
		wc.c.Close()
	}
}

func (p *RemotePool) markUp(addr string) {
	p.mu.Lock()
	delete(p.down, addr)
	p.mu.Unlock()
}

// checkout returns a ready connection to addr: a pooled one revalidated
// by a keepalive ping, or a freshly dialed and handshaken one.
func (p *RemotePool) checkout(addr string) (*workerConn, error) {
	for {
		p.mu.Lock()
		conns := p.idle[addr]
		var wc *workerConn
		if n := len(conns); n > 0 {
			wc, p.idle[addr] = conns[n-1], conns[:n-1]
		}
		p.mu.Unlock()
		if wc == nil {
			break
		}
		if err := p.ping(wc); err == nil {
			return wc, nil
		}
		wc.c.Close() // stale pooled connection; try the next or dial
	}
	return p.dial(addr)
}

func (p *RemotePool) dial(addr string) (*workerConn, error) {
	dial := p.opts.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, p.opts.DialTimeout)
		}
	}
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	wc := &workerConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
	c.SetDeadline(time.Now().Add(p.opts.DialTimeout))
	defer c.SetDeadline(time.Time{})
	if err := writeHello(wc.w, Hello{Protocol: ProtocolVersion, Format: FormatVersion}); err != nil {
		c.Close()
		return nil, err
	}
	if err := wc.w.Flush(); err != nil {
		c.Close()
		return nil, err
	}
	hello, err := readHello(wc.r)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if err := hello.check(); err != nil {
		c.Close()
		return nil, err
	}
	wc.sweeps = make(map[string]bool, len(hello.Sweeps))
	for _, s := range hello.Sweeps {
		wc.sweeps[s] = true
	}
	return wc, nil
}

// ping revalidates a pooled connection with a keepalive round trip.
func (p *RemotePool) ping(wc *workerConn) error {
	wc.c.SetDeadline(time.Now().Add(p.opts.PingTimeout))
	defer wc.c.SetDeadline(time.Time{})
	if err := writeFrame(wc.w, framePing, nil); err != nil {
		return err
	}
	if err := wc.w.Flush(); err != nil {
		return err
	}
	t, _, err := readFrame(wc.r)
	if err != nil {
		return err
	}
	if t != framePong {
		return fmt.Errorf("shard: keepalive got %s frame, want pong", t)
	}
	return nil
}

// runShard performs one spec→result round trip on an established
// connection.
func (p *RemotePool) runShard(wc *workerConn, spec ShardSpec) (ShardResult, error) {
	payload, err := spec.Encode()
	if err != nil {
		return ShardResult{}, err
	}
	if p.opts.ShardTimeout > 0 {
		wc.c.SetDeadline(time.Now().Add(p.opts.ShardTimeout))
		defer wc.c.SetDeadline(time.Time{})
	}
	if err := writeFrame(wc.w, frameSpec, payload); err != nil {
		return ShardResult{}, err
	}
	if err := wc.w.Flush(); err != nil {
		return ShardResult{}, err
	}
	t, body, err := readFrame(wc.r)
	if err != nil {
		return ShardResult{}, err
	}
	switch t {
	case frameResult:
		return DecodeResult(body)
	case frameError:
		return ShardResult{}, errWorker{msg: string(body)}
	case frameDrain:
		return ShardResult{}, errDraining
	default:
		return ShardResult{}, fmt.Errorf("shard: unexpected %s frame in response to spec", t)
	}
}

func (p *RemotePool) putIdle(addr string, wc *workerConn) {
	p.markUp(addr)
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.idle[addr] = append(p.idle[addr], wc)
	}
	p.mu.Unlock()
	if closed {
		// Returned after Close: close it outside the lock (Close on a dead
		// peer can block until the kernel gives up).
		wc.c.Close()
	}
}

// Close closes every pooled connection. In-flight shards finish on their
// own connections; subsequent dispatches fail.
func (p *RemotePool) Close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = make(map[string][]*workerConn)
	p.mu.Unlock()
	// Close outside the lock: Close on a dead peer can block, and putIdle
	// callers must not queue up behind it.
	for _, conns := range idle {
		for _, wc := range conns {
			wc.c.Close()
		}
	}
}
