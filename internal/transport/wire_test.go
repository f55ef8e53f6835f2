package transport

// wire_test.go pins the versioned wire protocol: golden bytes for the v2
// handshake and frame layout (so v2 can't silently drift), the v1 net/rpc
// compat shim (so pre-v2 clients keep parsing), and the cancellation
// semantics — a client-side deadline aborts the matching server-side
// handler, and a dropped connection aborts everything in flight.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// --- golden framing ---

// TestWireGoldenHandshake pins the 5-byte v2 preamble and the server's
// accept byte.
func TestWireGoldenHandshake(t *testing.T) {
	pre := append(append([]byte(nil), wireMagic[:]...), WireV2)
	if got, want := hex.EncodeToString(pre), "5350524302"; got != want {
		t.Fatalf("v2 preamble drifted: %s want %s", got, want)
	}
	if WireV1 != 1 || WireV2 != 2 {
		t.Fatal("protocol version numbering drifted")
	}
}

// goldenFrames builds the representative v2 frames the golden test pins.
// Gob allocates type descriptors process-globally in first-use order, so
// byte-exact output requires a process that has encoded nothing else —
// TestWireGoldenFrames reruns itself in a clean child process for that.
func goldenFrames() []struct{ name, hex string } {
	mustEnc := func(v any) []byte {
		b, err := encodeGob(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	return []struct{ name, hex string }{
		{"store-call", hex.EncodeToString(appendFrame(nil, frameCall, MsgStoreCiphertext, 7,
			mustEnc(StoreCiphertextArgs{User: "alice", CT: []byte{1, 2, 3}})))},
		{"fetch-call", hex.EncodeToString(appendFrame(nil, frameCall, MsgFetchCiphertext, 8,
			mustEnc(UserArg{User: "alice"})))},
		{"reply", hex.EncodeToString(appendFrame(nil, frameReply, MsgFetchCiphertext, 8,
			mustEnc(wireReply{Body: []byte{0xaa}})))},
		{"cancel", hex.EncodeToString(appendFrame(nil, frameCancel, MsgRelayRecover, 9, nil))},
		// Appended, never inserted: a new payload type takes the next gob
		// type id, so the frames above keep their bytes.
		{"oracle-getmany-call", hex.EncodeToString(appendFrame(nil, frameCall, MsgOracleGetMany, 10,
			mustEnc(OracleBatchArgs{HSMID: 3, Addrs: []uint64{1, 2, 5}})))},
		{"oracle-getmany-reply", hex.EncodeToString(appendFrame(nil, frameReply, MsgOracleGetMany, 10,
			mustEnc(wireReply{Body: mustEnc(BlocksReply{Blocks: [][]byte{{0xaa}, nil, {0xbb, 0xcc}}})})))},
		{"oracle-putmany-call", hex.EncodeToString(appendFrame(nil, frameCall, MsgOraclePutMany, 11,
			mustEnc(OracleBatchArgs{HSMID: 3, Addrs: []uint64{5, 2}, Blocks: [][]byte{{0xaa}, {0xbb, 0xcc}}})))},
	}
}

// wireGolden is the frozen v2 framing: header layout (kind | msg tag | id
// | length) and the standalone-gob payload encoding. If any of these
// bytes change, the protocol version must be bumped instead.
var wireGolden = map[string]string{
	"store-call": "01170000000700000041307f0301011353746f7265436970686572746578744172677301ff80000102010455736572010c0001024354010a0000000fff800105616c696365010301020300",
	"fetch-call": "0118000000080000002a1eff81030101075573657241726701ff82000101010455736572010c0000000aff820105616c69636500",
	"reply":      "0218000000080000003028ff8303010109776972655265706c7901ff840001020103457272010c000104426f6479010a00000006ff840201aa00",
	"cancel":     "031f0000000900000000",

	"oracle-getmany-call":  "01240000000a000000793eff850301010f4f7261636c6542617463684172677301ff86000103010548534d49440104000105416464727301ff88000106426c6f636b7301ff8a00000016ff87020101085b5d75696e74363401ff88000106000017ff89020101095b5d5b5d75696e743801ff8a00010a00000aff860106010301020500",
	"oracle-getmany-reply": "02240000000a0000007928ff8303010109776972655265706c7901ff840001020103457272010c000104426f6479010a0000004fff84024a25ff8b0301010b426c6f636b735265706c7901ff8c0001010106426c6f636b7301ff8a00000017ff89020101095b5d5b5d75696e743801ff8a00010a00000bff8c010301aa0002bbcc0000",
	"oracle-putmany-call":  "01250000000b0000007f3eff850301010f4f7261636c6542617463684172677301ff86000103010548534d49440104000105416464727301ff88000106426c6f636b7301ff8a00000016ff87020101085b5d75696e74363401ff88000106000017ff89020101095b5d5b5d75696e743801ff8a00010a000010ff86010601020502010201aa02bbcc00",
}

// TestWireGoldenFrames pins the exact frame bytes against wireGolden. The
// byte comparison runs in a freshly forked child (clean gob state); the
// parent additionally checks the frames round-trip through readFrame.
func TestWireGoldenFrames(t *testing.T) {
	if os.Getenv("WIRE_GOLDEN_CHILD") == "1" {
		for _, f := range goldenFrames() {
			fmt.Printf("GOLDEN %s %s\n", f.name, f.hex)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWireGoldenFrames$", "-test.v")
	cmd.Env = append(os.Environ(), "WIRE_GOLDEN_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("golden child failed: %v\n%s", err, out)
	}
	seen := 0
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "GOLDEN" {
			continue
		}
		seen++
		name, got := fields[1], fields[2]
		if want, ok := wireGolden[name]; !ok || got != want {
			t.Errorf("%s frame drifted:\n got %s\nwant %s", name, got, want)
		}
	}
	if seen != len(wireGolden) {
		t.Fatalf("child emitted %d frames, want %d:\n%s", seen, len(wireGolden), out)
	}

	// In this (dirty) process the payload type ids may differ, but every
	// frame must still round-trip through the reader, and the golden
	// payloads must decode with a fresh decoder — self-contained frames.
	var stream bytes.Buffer
	for _, f := range goldenFrames() {
		raw, err := hex.DecodeString(f.hex)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(raw)
	}
	for _, f := range goldenFrames() {
		kind, msg, id, payload, err := readFrame(&stream)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got := hex.EncodeToString(appendFrame(nil, kind, msg, id, payload)); got != f.hex {
			t.Fatalf("%s did not round-trip", f.name)
		}
	}
	var store StoreCiphertextArgs
	raw, _ := hex.DecodeString(wireGolden["store-call"])
	if err := decodeGob(raw[wireHeaderLen:], &store); err != nil {
		t.Fatalf("frozen v2 payload no longer parses: %v", err)
	}
	if store.User != "alice" || !bytes.Equal(store.CT, []byte{1, 2, 3}) {
		t.Fatalf("frozen v2 payload decoded wrong: %+v", store)
	}
}

// TestWireMessageTagsFrozen pins the tag assignments: tags are the wire
// contract, append-only.
func TestWireMessageTagsFrozen(t *testing.T) {
	frozen := map[string]byte{
		"ProviderConfig": 0x10, "OracleGet": 0x11, "OraclePut": 0x12,
		"Register": 0x13, "Status": 0x14, "InstallRosters": 0x15,
		"FetchFleet": 0x16, "StoreCiphertext": 0x17, "FetchCiphertext": 0x18,
		"AttemptCount": 0x19, "ReserveAttempt": 0x1a, "LogRecoveryAttempt": 0x1b,
		"RunEpoch": 0x1c, "WaitForCommit": 0x1d, "FetchInclusionProof": 0x1e,
		"RelayRecover": 0x1f, "FetchEscrow": 0x20, "ClearEscrow": 0x21,
		"LogEntries": 0x22, "LogDigest": 0x23,
		"OracleGetMany": 0x24, "OraclePutMany": 0x25,
		"HSMRecover": 0x30, "HSMInstallRoster": 0x31, "HSMChooseChunks": 0x32,
		"HSMHandleAudit": 0x33, "HSMHandleCommit": 0x34,
	}
	got := map[string]byte{
		"ProviderConfig": MsgProviderConfig, "OracleGet": MsgOracleGet, "OraclePut": MsgOraclePut,
		"Register": MsgRegister, "Status": MsgStatus, "InstallRosters": MsgInstallRosters,
		"FetchFleet": MsgFetchFleet, "StoreCiphertext": MsgStoreCiphertext, "FetchCiphertext": MsgFetchCiphertext,
		"AttemptCount": MsgAttemptCount, "ReserveAttempt": MsgReserveAttempt, "LogRecoveryAttempt": MsgLogRecoveryAttempt,
		"RunEpoch": MsgRunEpoch, "WaitForCommit": MsgWaitForCommit, "FetchInclusionProof": MsgFetchInclusionProof,
		"RelayRecover": MsgRelayRecover, "FetchEscrow": MsgFetchEscrow, "ClearEscrow": MsgClearEscrow,
		"LogEntries": MsgLogEntries, "LogDigest": MsgLogDigest,
		"OracleGetMany": MsgOracleGetMany, "OraclePutMany": MsgOraclePutMany,
		"HSMRecover": MsgHSMRecover, "HSMInstallRoster": MsgHSMInstallRoster, "HSMChooseChunks": MsgHSMChooseChunks,
		"HSMHandleAudit": MsgHSMHandleAudit, "HSMHandleCommit": MsgHSMHandleCommit,
	}
	for name, tag := range frozen {
		if got[name] != tag {
			t.Errorf("tag %s renumbered: 0x%02x want 0x%02x", name, got[name], tag)
		}
	}
}

// --- v1 compat shim ---

// TestWireV1CompatShim: a legacy net/rpc client (the pre-v2 wire format,
// no preamble) dials the same port a v2 fleet serves on and performs real
// calls through the sniffing shim.
func TestWireV1CompatShim(t *testing.T) {
	paddr, shutdown := startFleet(t, 2)
	defer shutdown()

	legacy, err := rpc.Dial("tcp", paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()

	// Store and fetch a ciphertext entirely over v1 frames.
	if err := legacy.Call("Provider.StoreCiphertext",
		StoreCiphertextArgs{User: "v1-user", CT: []byte("legacy bytes")}, &Nothing{}); err != nil {
		t.Fatal(err)
	}
	var blob []byte
	if err := legacy.Call("Provider.FetchCiphertext", "v1-user", &blob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, []byte("legacy bytes")) {
		t.Fatalf("v1 round trip corrupted: %q", blob)
	}
	var n int
	if err := legacy.Call("Provider.AttemptCount", "v1-user", &n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("v1 AttemptCount = %d", n)
	}

	// A v2 client on the same port sees the v1 client's writes: one state,
	// two framings.
	rp, err := DialProvider(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	got, err := rp.FetchCiphertext(tctx, "v1-user")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("v1 and v2 see different state")
	}
}

// TestWireRejectsUnknownVersion: a client offering a future version gets
// the reject byte, not a hang.
func TestWireRejectsUnknownVersion(t *testing.T) {
	reg := NewRegistry()
	ln, addr, err := Serve("X", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(append(append([]byte(nil), wireMagic[:]...), 99)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatalf("server accepted unknown version with %d", buf[0])
	}
}

// --- cancellation propagation ---

// testHungService builds a registry with one handler that blocks until its
// context fires, reporting the observed cancellation.
func testHungService(t *testing.T) (addr string, entered <-chan struct{}, aborted <-chan error, cleanup func()) {
	t.Helper()
	const msgHang = 0x7f
	enteredCh := make(chan struct{}, 8)
	abortedCh := make(chan error, 8)
	reg := NewRegistry()
	handleWire(reg, msgHang, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		enteredCh <- struct{}{}
		<-ctx.Done()
		abortedCh <- ctx.Err()
		return nil, ctx.Err()
	})
	ln, addr, err := Serve("X", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, enteredCh, abortedCh, func() { ln.Close() }
}

// TestWireClientDeadlineAbortsServerHandler: the satellite's transport
// acceptance — a client-side deadline on an in-flight call cancels the
// server-side handler via a cancel frame.
func TestWireClientDeadlineAbortsServerHandler(t *testing.T) {
	addr, entered, aborted, cleanup := testHungService(t)
	defer cleanup()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.Call(ctx, 0x7f, Nothing{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call returned %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline did not bound the call")
	}
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	select {
	case err := <-aborted:
		if err == nil {
			t.Fatal("handler context not cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server-side handler outlived the client deadline")
	}
	// The connection stays usable for later calls after a cancel: an
	// unknown-tag call gets an error reply rather than a dead stream.
	if err := c.Call(tctx, 0x70, Nothing{}, nil); err == nil {
		t.Fatal("unknown tag silently succeeded")
	}
}

// TestWireDisconnectAbortsServerHandlers: dropping the connection cancels
// every in-flight handler on it.
func TestWireDisconnectAbortsServerHandlers(t *testing.T) {
	addr, entered, aborted, cleanup := testHungService(t)
	defer cleanup()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = c.Call(context.Background(), 0x7f, Nothing{}, nil)
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	c.Close()
	select {
	case err := <-aborted:
		if err == nil {
			t.Fatal("handler context not cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server-side handler survived the disconnect")
	}
}

// TestWireOversizePayloadScopedToCall: a payload over the frame limit
// fails its own call with a descriptive error and leaves the multiplexed
// connection usable for everyone else.
func TestWireOversizePayloadScopedToCall(t *testing.T) {
	const msgEcho = 0x7d
	reg := NewRegistry()
	handleWire(reg, msgEcho, func(ctx context.Context, a *BytesReply) (*BytesReply, error) {
		return a, nil
	})
	ln, addr, err := Serve("X", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := BytesReply{B: make([]byte, maxFramePayload+1)}
	err = c.Call(tctx, msgEcho, huge, nil)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversize payload returned %v", err)
	}
	// The connection is not poisoned: a normal call still round-trips.
	var out BytesReply
	if err := c.Call(tctx, msgEcho, BytesReply{B: []byte("ok")}, &out); err != nil {
		t.Fatalf("connection dead after oversize call: %v", err)
	}
	if !bytes.Equal(out.B, []byte("ok")) {
		t.Fatal("echo corrupted")
	}
}

// TestWireInFlightCallsSeeErrConnClosed: a Close (or peer drop) must
// surface to blocked callers as the ErrConnClosed sentinel — the same
// error later calls get — so errors.Is-based retry logic works for both.
func TestWireInFlightCallsSeeErrConnClosed(t *testing.T) {
	addr, entered, _, cleanup := testHungService(t)
	defer cleanup()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	go func() { inflight <- c.Call(context.Background(), 0x7f, Nothing{}, nil) }()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	c.Close()
	select {
	case err := <-inflight:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("in-flight call returned %v, not ErrConnClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call never unblocked after Close")
	}
	if err := c.Call(tctx, 0x7f, Nothing{}, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-Close call returned %v, not ErrConnClosed", err)
	}
}

// TestWireContextErrorsCrossTheWire: a handler that dies with a context
// sentinel surfaces as the same sentinel at the caller (errors.Is works
// across the process boundary).
func TestWireContextErrorsCrossTheWire(t *testing.T) {
	const msgCancelled = 0x7e
	reg := NewRegistry()
	handleWire(reg, msgCancelled, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return nil, context.Canceled
	})
	ln, addr, err := Serve("X", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call(tctx, msgCancelled, Nothing{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("sentinel lost in transit: %v", err)
	}
}
