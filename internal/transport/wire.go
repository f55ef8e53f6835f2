package transport

// wire.go implements the versioned SafetyPin wire protocol (v2): a framed,
// context-aware RPC layer that replaces the bare net/rpc gob stream (v1)
// while keeping v1 frames parseable behind a compat shim (see Serve).
//
// # Handshake
//
// A v2 client opens with a 5-byte preamble: the 4-byte magic "SPRC"
// followed by one protocol-version byte. The server answers with a single
// byte — the accepted version, or 0 to reject. A v1 client (stdlib
// net/rpc) sends no preamble; its first bytes are a gob type descriptor,
// which cannot collide with the magic, so the server sniffs the first four
// bytes and routes the connection to the legacy net/rpc server instead.
//
// # Frames
//
// After the handshake both directions speak length-prefixed frames:
//
//	+------+------+----------+-----------+----------------+
//	| kind | msg  | id (u32) | len (u32) | payload (gob)  |
//	| 1 B  | 1 B  | 4 B BE   | 4 B BE    | len bytes      |
//	+------+------+----------+-----------+----------------+
//
// kind is the frame kind (call / reply / cancel); msg is the per-message
// type tag identifying the RPC (MsgStoreCiphertext, MsgRelayRecover, …);
// id correlates a call with its reply. Each payload is one standalone gob
// value, so frames are self-contained and byte-stable for golden tests.
//
// # Cancellation
//
// Every server-side handler runs under a context derived from the
// connection: closing the connection cancels every in-flight handler, and
// a cancel frame (kind 0x03, same id as the call) cancels one handler
// without disturbing the rest. Client-side, Conn.Call honours its
// context — on cancellation it sends the cancel frame, abandons the
// pending call, and returns ctx.Err() immediately.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// wireMagic opens every v2 connection; chosen so it can never be confused
// with the opening bytes of a v1 (gob) stream.
var wireMagic = [4]byte{'S', 'P', 'R', 'C'}

// Protocol versions. WireV1 is the legacy net/rpc gob stream (no preamble);
// WireV2 is the framed protocol in this file.
const (
	WireV1 byte = 1
	WireV2 byte = 2
)

// Frame kinds.
const (
	frameCall   byte = 0x01
	frameReply  byte = 0x02
	frameCancel byte = 0x03
)

// Per-message type tags: one byte per RPC, negotiated wire-wide at connect
// via the protocol version. Tags are append-only — never renumber.
const (
	// Provider service.
	MsgProviderConfig      byte = 0x10
	MsgOracleGet           byte = 0x11
	MsgOraclePut           byte = 0x12
	MsgRegister            byte = 0x13
	MsgStatus              byte = 0x14
	MsgInstallRosters      byte = 0x15
	MsgFetchFleet          byte = 0x16
	MsgStoreCiphertext     byte = 0x17
	MsgFetchCiphertext     byte = 0x18
	MsgAttemptCount        byte = 0x19
	MsgReserveAttempt      byte = 0x1a
	MsgLogRecoveryAttempt  byte = 0x1b
	MsgRunEpoch            byte = 0x1c
	MsgWaitForCommit       byte = 0x1d
	MsgFetchInclusionProof byte = 0x1e
	MsgRelayRecover        byte = 0x1f
	MsgFetchEscrow         byte = 0x20
	MsgClearEscrow         byte = 0x21
	MsgLogEntries          byte = 0x22
	MsgLogDigest           byte = 0x23
	MsgOracleGetMany       byte = 0x24
	MsgOraclePutMany       byte = 0x25

	// HSM service.
	MsgHSMRecover       byte = 0x30
	MsgHSMInstallRoster byte = 0x31
	MsgHSMChooseChunks  byte = 0x32
	MsgHSMHandleAudit   byte = 0x33
	MsgHSMHandleCommit  byte = 0x34
)

// wireHeaderLen is the fixed frame-header size.
const wireHeaderLen = 10

// maxFramePayload bounds a single frame (16 MiB) so a corrupt length
// prefix cannot allocate unboundedly.
const maxFramePayload = 16 << 20

// wireReply is the payload of every reply frame.
type wireReply struct {
	Err  string
	Body []byte // gob of the result value; nil on error
}

func encodeGob(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encoding %T: %w", v, err)
	}
	return b.Bytes(), nil
}

func decodeGob(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("transport: decoding %T: %w", v, err)
	}
	return nil
}

// appendFrame serializes one frame; exposed as a function (not a method on
// a conn) so golden tests can pin the exact byte layout.
func appendFrame(dst []byte, kind, msg byte, id uint32, payload []byte) []byte {
	var hdr [wireHeaderLen]byte
	hdr[0] = kind
	hdr[1] = msg
	binary.BigEndian.PutUint32(hdr[2:6], id)
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func writeFrame(w io.Writer, kind, msg byte, id uint32, payload []byte) error {
	// Enforced on the send side too: an oversized payload must fail its
	// own call with a descriptive error, not poison the shared stream for
	// every multiplexed caller when the peer's readFrame rejects it (and
	// a >4 GiB payload would silently wrap the uint32 length).
	if len(payload) > maxFramePayload {
		return fmt.Errorf("transport: message 0x%02x payload %d bytes exceeds the %d-byte frame limit",
			msg, len(payload), maxFramePayload)
	}
	_, err := w.Write(appendFrame(nil, kind, msg, id, payload))
	return err
}

func readFrame(r io.Reader) (kind, msg byte, id uint32, payload []byte, err error) {
	var hdr [wireHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	kind, msg = hdr[0], hdr[1]
	id = binary.BigEndian.Uint32(hdr[2:6])
	n := binary.BigEndian.Uint32(hdr[6:10])
	if n > maxFramePayload {
		err = fmt.Errorf("transport: frame payload %d exceeds limit", n)
		return
	}
	payload = make([]byte, n)
	_, err = io.ReadFull(r, payload)
	return
}

// --- server side ---

// wireHandler serves one RPC: gob-encoded args in, gob-encoded result out.
type wireHandler func(ctx context.Context, args []byte) ([]byte, error)

// Registry maps message tags to handlers — the v2 server's dispatch table.
type Registry struct {
	handlers map[byte]wireHandler
}

// NewRegistry returns an empty dispatch table.
func NewRegistry() *Registry {
	return &Registry{handlers: make(map[byte]wireHandler)}
}

// handleWire registers a typed handler for a message tag.
func handleWire[A, R any](reg *Registry, msg byte, fn func(ctx context.Context, args *A) (*R, error)) {
	reg.handlers[msg] = func(ctx context.Context, raw []byte) ([]byte, error) {
		var args A
		if err := decodeGob(raw, &args); err != nil {
			return nil, err
		}
		out, err := fn(ctx, &args)
		if err != nil {
			return nil, err
		}
		return encodeGob(out)
	}
}

// serveWire runs the v2 framed protocol on one accepted connection whose
// preamble has already been consumed. Every handler runs under a context
// cancelled when the connection drops (a disconnected client aborts its
// in-flight work) or when a cancel frame names its call id.
func serveWire(conn net.Conn, reg *Registry) {
	defer conn.Close()
	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	var wmu sync.Mutex // serializes reply writes from handler goroutines
	var imu sync.Mutex
	inflight := make(map[uint32]context.CancelFunc)
	for {
		kind, msg, id, payload, err := readFrame(conn)
		if err != nil {
			return // disconnect: deferred cancelAll aborts in-flight handlers
		}
		switch kind {
		case frameCall:
			h, ok := reg.handlers[msg]
			if !ok {
				wmu.Lock()
				replyErr(conn, msg, id, fmt.Errorf("transport: unknown message tag 0x%02x", msg))
				wmu.Unlock()
				continue
			}
			callCtx, cancel := context.WithCancel(ctx)
			imu.Lock()
			inflight[id] = cancel
			imu.Unlock()
			go func(msg byte, id uint32, payload []byte) {
				body, err := h(callCtx, payload)
				imu.Lock()
				delete(inflight, id)
				imu.Unlock()
				cancel()
				wmu.Lock()
				defer wmu.Unlock()
				if err != nil {
					replyErr(conn, msg, id, err)
					return
				}
				p, encErr := encodeGob(&wireReply{Body: body})
				if encErr != nil {
					replyErr(conn, msg, id, encErr)
					return
				}
				_ = writeFrame(conn, frameReply, msg, id, p)
			}(msg, id, payload)
		case frameCancel:
			imu.Lock()
			if cancel, ok := inflight[id]; ok {
				cancel()
			}
			imu.Unlock()
		default:
			return // protocol violation: drop the connection
		}
	}
}

func replyErr(w io.Writer, msg byte, id uint32, err error) {
	p, encErr := encodeGob(&wireReply{Err: err.Error()})
	if encErr != nil {
		return
	}
	_ = writeFrame(w, frameReply, msg, id, p)
}

// --- client side ---

// ErrConnClosed is returned for calls on a closed or failed connection.
var ErrConnClosed = errors.New("transport: connection closed")

// callResult is what a pending call receives: either the peer's reply or
// a transport-level failure (err set), delivered as an error *value* so
// sentinels like ErrConnClosed survive for errors.Is.
type callResult struct {
	rep wireReply
	err error
}

// Conn is a v2 client connection: concurrency-safe, one multiplexed TCP
// stream, per-call contexts.
type Conn struct {
	nc net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint32]chan callResult
	nextID  uint32
	err     error
}

// DialWire opens a v2 connection: dial, send the magic + version preamble,
// and check the server's accepted-version byte.
func DialWire(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	pre := append(append([]byte(nil), wireMagic[:]...), WireV2)
	if _, err := nc.Write(pre); err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	var accepted [1]byte
	if _, err := io.ReadFull(nc, accepted[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	if accepted[0] != WireV2 {
		nc.Close()
		return nil, fmt.Errorf("transport: server rejected protocol v%d (answered %d)", WireV2, accepted[0])
	}
	c := &Conn{nc: nc, pending: make(map[uint32]chan callResult)}
	go c.readLoop()
	return c, nil
}

func (c *Conn) readLoop() {
	for {
		kind, _, id, payload, err := readFrame(c.nc)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		if kind != frameReply {
			continue // servers only send replies; ignore anything else
		}
		var r wireReply
		if err := decodeGob(payload, &r); err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- callResult{rep: r} // buffered
		}
		// Unknown id: a reply for a cancelled call; drop it.
	}
}

// fail poisons the connection and wakes every pending call with the
// error value itself, so in-flight callers see the same sentinel
// (ErrConnClosed) as later ones.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint32]chan callResult)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
}

// Call performs one RPC. reply may be nil for calls without a result.
// Cancelling ctx sends a cancel frame for the in-flight call (aborting the
// server-side handler) and returns ctx.Err() without waiting for the
// server.
func (c *Conn) Call(ctx context.Context, msg byte, args, reply any) error {
	payload, err := encodeGob(args)
	if err != nil {
		return err
	}
	// Reject oversize payloads before touching connection state, so the
	// failure stays scoped to this call (the connection remains usable).
	if len(payload) > maxFramePayload {
		return fmt.Errorf("transport: message 0x%02x payload %d bytes exceeds the %d-byte frame limit",
			msg, len(payload), maxFramePayload)
	}
	ch := make(chan callResult, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err = writeFrame(c.nc, frameCall, msg, id, payload)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrConnClosed, err)
	}

	select {
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		if r.rep.Err != "" {
			return wireError(r.rep.Err)
		}
		if reply == nil {
			return nil
		}
		return decodeGob(r.rep.Body, reply)
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.wmu.Lock()
		_ = writeFrame(c.nc, frameCancel, msg, id, nil)
		c.wmu.Unlock()
		return ctx.Err()
	}
}

// Close tears down the connection; in-flight calls fail with ErrConnClosed
// and the server cancels their handlers.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	return c.nc.Close()
}

// wireError maps an error string received over the wire back to an error
// value, restoring the context sentinel errors so errors.Is works across
// the process boundary.
func wireError(s string) error {
	switch s {
	case context.Canceled.Error():
		return context.Canceled
	case context.DeadlineExceeded.Error():
		return context.DeadlineExceeded
	}
	return errors.New(s)
}
