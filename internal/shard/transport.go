package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"time"
)

// This file is the network leg of the sharding protocol: a long-lived
// worker (Server) serves shards over TCP to remote coordinators
// (RemotePool, remote.go), speaking a length-prefixed, checksummed,
// versioned framing of the existing ShardSpec/ShardResult JSON wire
// format. The framing adds nothing to the shard semantics — a shard
// computed over the network is byte-identical to one computed in-process
// by LocalRunner — it only makes the stream self-delimiting and
// corruption-evident so a coordinator can multiplex shards over
// connections and retry cleanly when a worker or link dies.
//
// Frame layout (all integers big-endian):
//
//	uint32  length    — length of body (type byte + payload), ≥ 1,
//	                    ≤ 1+MaxFramePayload
//	body    bytes     — 1 type byte, then the payload
//	uint32  checksum  — IEEE CRC-32 of body
//
// A connection opens with a handshake: the client sends a hello frame
// (protocol + format version), the server verifies both and answers with
// its own hello, which also carries its registry identity (the sorted
// registered sweep ids) so a coordinator can fail fast on a worker that
// cannot run the sweep. After the handshake the client sends spec frames
// (one ShardSpec JSON each) and the server answers each with exactly one
// result frame (ShardResult JSON), error frame (message text), or drain
// frame (the server is shutting down; re-dispatch elsewhere). Ping frames
// may be sent by the client at any point between requests and are echoed
// back as pongs — the keepalive that lets a pooled connection be
// revalidated before reuse.

// ProtocolVersion is the version of the TCP framing. It is independent of
// FormatVersion (the JSON payload format): either may change without the
// other, and the handshake checks both.
const ProtocolVersion = 1

// MaxFramePayload bounds a frame's payload. Both sides reject larger
// frames before allocating, so a corrupt or hostile length prefix cannot
// balloon memory. Journal records share the bound.
const MaxFramePayload = 32 << 20

type frameType byte

const (
	frameHello  frameType = 1
	frameSpec   frameType = 2
	frameResult frameType = 3
	frameError  frameType = 4
	framePing   frameType = 5
	framePong   frameType = 6
	frameDrain  frameType = 7
)

func (t frameType) String() string {
	switch t {
	case frameHello:
		return "hello"
	case frameSpec:
		return "spec"
	case frameResult:
		return "result"
	case frameError:
		return "error"
	case framePing:
		return "ping"
	case framePong:
		return "pong"
	case frameDrain:
		return "drain"
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// writeFrame encodes one frame onto w. Callers using buffered writers
// flush themselves.
func writeFrame(w io.Writer, t frameType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("shard: %s frame payload of %d bytes exceeds MaxFramePayload (%d)",
			t, len(payload), MaxFramePayload)
	}
	var head [5]byte
	binary.BigEndian.PutUint32(head[:4], uint32(1+len(payload)))
	head[4] = byte(t)
	crc := crc32.NewIEEE()
	crc.Write(head[4:5])
	crc.Write(payload)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	for _, b := range [][]byte{head[:], payload, sum[:]} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("shard: writing %s frame: %w", t, err)
		}
	}
	return nil
}

// readFrame decodes one frame from r, enforcing the length bound before
// allocating and the checksum after reading.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(head[:])
	if length < 1 || length > 1+MaxFramePayload {
		return 0, nil, fmt.Errorf("shard: frame of %d bytes is outside [1, %d] (corrupt stream?)",
			length, 1+MaxFramePayload)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("shard: truncated frame: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("shard: truncated frame checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(sum[:]); got != want {
		return 0, nil, fmt.Errorf("shard: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	return frameType(body[0]), body[1:], nil
}

// Hello is the handshake payload (JSON). The client sends Protocol and
// Format; the server echoes both plus Sweeps, its sorted registered sweep
// ids — the registry identity a coordinator checks dispatch against.
type Hello struct {
	Protocol int      `json:"protocol"`
	Format   int      `json:"format"`
	Sweeps   []string `json:"sweeps,omitempty"`
}

func (h Hello) check() error {
	if h.Protocol != ProtocolVersion {
		return fmt.Errorf("shard: peer speaks transport protocol %d, this build speaks %d", h.Protocol, ProtocolVersion)
	}
	// Any format this build can decode is negotiable: a v1 peer's messages
	// still parse (they cannot carry dist fields), so mixed fleets keep
	// working across the v1→v2 bump for non-dist sweeps.
	if !versionAccepted(h.Format) {
		return fmt.Errorf("shard: peer speaks wire format %d, this build speaks %d", h.Format, FormatVersion)
	}
	return nil
}

func writeHello(w io.Writer, h Hello) error {
	payload, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return writeFrame(w, frameHello, payload)
}

func readHello(r io.Reader) (Hello, error) {
	t, payload, err := readFrame(r)
	if err != nil {
		return Hello{}, err
	}
	switch t {
	case frameHello:
	case frameError:
		// The peer rejected us during its half of the handshake; surface
		// its reason rather than a frame-type complaint.
		return Hello{}, fmt.Errorf("shard: peer rejected handshake: %s", payload)
	default:
		return Hello{}, fmt.Errorf("shard: expected hello frame, got %s", t)
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return Hello{}, fmt.Errorf("shard: malformed hello: %w", err)
	}
	return h, nil
}

// Server is a long-lived network worker: it accepts coordinator
// connections on a listener and serves shard requests against a registry
// until closed or drained. One shard runs at a time per connection;
// coordinators get parallelism by opening several connections (RemotePool
// does exactly that).
type Server struct {
	reg *Registry

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	closed   bool
	inflight sync.WaitGroup // shard computations + their response writes
	handlers sync.WaitGroup // accept loop and per-connection goroutines
}

// Serve starts serving shards from reg on ln (which the server takes
// ownership of) and returns immediately; computations happen on the
// server's own goroutines. Use Drain for a graceful stop, Close for an
// immediate one.
func Serve(ln net.Listener, reg *Registry) *Server {
	s := &Server{reg: reg, ln: ln, conns: make(map[net.Conn]struct{})}
	s.handlers.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.handlers.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Drain/Close
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			c.Close()
		}()
	}
}

// handle speaks the per-connection protocol: handshake, then a
// spec→result loop until the peer goes away or the server drains.
func (s *Server) handle(c net.Conn) {
	peer, err := readHello(c)
	if err != nil {
		return
	}
	if err := peer.check(); err != nil {
		writeFrame(c, frameError, []byte(err.Error()))
		return
	}
	if err := writeHello(c, Hello{Protocol: ProtocolVersion, Format: FormatVersion, Sweeps: s.reg.Names()}); err != nil {
		return
	}
	for {
		t, payload, err := readFrame(c)
		if err != nil {
			return // peer closed or stream corrupt; nothing to salvage
		}
		switch t {
		case framePing:
			if writeFrame(c, framePong, payload) != nil {
				return
			}
		case frameSpec:
			// The draining check and the in-flight registration are one
			// critical section, so Drain's inflight.Wait never misses a
			// shard that was admitted concurrently.
			s.mu.Lock()
			if s.draining || s.closed {
				s.mu.Unlock()
				writeFrame(c, frameDrain, nil)
				return
			}
			s.inflight.Add(1)
			s.mu.Unlock()
			err := s.serveShard(c, payload)
			s.inflight.Done()
			if err != nil {
				return
			}
		default:
			writeFrame(c, frameError, []byte(fmt.Sprintf("shard: unexpected %s frame", t)))
			return
		}
	}
}

// responseWriteTimeout bounds writing one response frame. A coordinator
// that stops reading (SIGSTOP'd, or a half-dead network path with the
// connection still open) would otherwise block the write forever once
// its TCP window fills — and the in-flight accounting covers response
// writes, so Drain would wedge with it.
const responseWriteTimeout = time.Minute

// serveShard answers one spec frame with exactly one result or error
// frame. The returned error is a connection-level failure; shard-level
// failures travel back to the coordinator as error frames.
func (s *Server) serveShard(c net.Conn, payload []byte) error {
	respond := func(t frameType, body []byte) error {
		c.SetWriteDeadline(time.Now().Add(responseWriteTimeout))
		defer c.SetWriteDeadline(time.Time{})
		return writeFrame(c, t, body)
	}
	spec, err := DecodeSpec(payload)
	if err != nil {
		return respond(frameError, []byte(err.Error()))
	}
	res, err := runRecovering(spec, s.reg)
	if err != nil {
		return respond(frameError, []byte(err.Error()))
	}
	encoded, err := res.Encode()
	if err != nil {
		return respond(frameError, []byte(err.Error()))
	}
	return respond(frameResult, encoded)
}

// runRecovering runs a shard, converting a panicking trial body into an
// error (with its stack) instead of killing the whole worker: one bad
// sweep must not take down a server that other sweeps depend on.
func runRecovering(spec ShardSpec, reg *Registry) (res ShardResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("shard: worker panic: %v\n%s", p, debug.Stack())
		}
	}()
	return Run(spec, reg)
}

// Drain gracefully stops the server: it stops accepting connections and
// new shard requests, waits for in-flight shards to finish and their
// results to be written, then closes the remaining connections. Shards
// dispatched after draining begins receive a drain frame, which
// RemotePool.Runner treats as "re-dispatch elsewhere".
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()
	s.inflight.Wait()
	s.shutdown()
}

// Close stops the server immediately, abandoning in-flight shards (their
// coordinators see the connection drop and retry).
func (s *Server) Close() {
	s.ln.Close()
	s.shutdown()
}

func (s *Server) shutdown() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	// Close outside the lock: a Close that blocks on a wedged peer must
	// not stall the accept loop's admission checks.
	for c := range conns {
		c.Close()
	}
	s.handlers.Wait()
}
