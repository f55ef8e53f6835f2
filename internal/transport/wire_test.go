package transport

// wire_test.go pins wire v3: golden bytes for the handshake, the frame
// layout and every payload layout (so v3 can't silently drift), the
// refusal of every v1 and v2 peer, a fuzz target over every decoder, and
// the cancellation semantics — a client-side deadline aborts the matching
// server-side handler, and a dropped connection aborts everything in
// flight.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"strings"
	"testing"
	"time"

	"safetypin/internal/dlog"
	"safetypin/internal/ecgroup"
	"safetypin/internal/logtree"
	"safetypin/internal/merkle"
	"safetypin/internal/protocol"
)

// --- golden framing ---

// TestWireGoldenHandshake pins the 5-byte v3 preamble.
func TestWireGoldenHandshake(t *testing.T) {
	pre := append(wireMagic[:], WireV3)
	if got, want := hex.EncodeToString(pre), "5350524303"; got != want {
		t.Fatalf("v3 preamble drifted: %s want %s", got, want)
	}
}

// mustEncode encodes v, failing the test on an encoding error.
func mustEncode[T any](t testing.TB, l layout[T], v T) []byte {
	t.Helper()
	b, err := l.encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wireGolden is the frozen v3 framing: header layout (kind | msg tag | id
// | length) around v3 payloads. If any of these bytes change, the protocol
// version must be bumped instead.
var wireGolden = map[string]string{
	"store-call":           "0117000000070000001000000005616c69636500000003010203",
	"fetch-call":           "0118000000080000000900000005616c696365",
	"reply":                "0218000000080000000a000000000500000001aa",
	"error-reply":          "0218000000080000000a01000000056572726f72",
	"cancel":               "031f0000000900000000",
	"oracle-getmany-call":  "01240000000a00000024000000030000000300000000000000010000000000000002000000000000000500000000",
	"oracle-getmany-reply": "02240000000a0000001800000000130000000300000001aa0000000000000002bbcc",
	"oracle-putmany-call":  "01250000000b000000270000000300000002000000000000000500000000000000020000000200000001aa00000002bbcc",
	"commit-call":          "01340000000c000000910000000000000009010101010101010101010101010101010101010101010101010101010101010102020202020202020202020202020202020202020202020202020202020202020303030303030303030303030303030303030303030303030303030303030303000000040000000200000001ab0000000300000000000000010000000300000002cdef000000021234",
	"audit-call":           "01330000000d00000110000000000000000901010101010101010101010101010101010101010101010101010101010101010202020202020202020202020202020202020202020202020202020202020202030303030303030303030303030303030303030303030303030303030303030300000004000000020000000200000001c00100000000000000010a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0100000001c10100000001000000010b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0000000002000000000000000001c00100000000000000010c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c01000000025a5b",
}

// goldenFrames builds the frames wireGolden pins.
func goldenFrames(t testing.TB) map[string][]byte {
	reply := func(body []byte) []byte { return mustEncode(t, replyL, wireReply{Body: body}) }
	return map[string][]byte{
		"store-call": appendFrame(nil, frameCall, MsgStoreCiphertext, 7,
			mustEncode(t, storeL, StoreCiphertextArgs{User: "alice", CT: []byte{1, 2, 3}})),
		"fetch-call": appendFrame(nil, frameCall, MsgFetchCiphertext, 8, mustEncode(t, strL, "alice")),
		"reply":      appendFrame(nil, frameReply, MsgFetchCiphertext, 8, reply(mustEncode(t, blobL, []byte{0xaa}))),
		"error-reply": appendFrame(nil, frameReply, MsgFetchCiphertext, 8,
			mustEncode(t, replyL, wireReply{Failed: true, Body: []byte("error")})),
		"cancel": appendFrame(nil, frameCancel, MsgRelayRecover, 9, nil),
		"oracle-getmany-call": appendFrame(nil, frameCall, MsgOracleGetMany, 10,
			mustEncode(t, oracleBatchL, OracleBatchArgs{HSMID: 3, Addrs: []uint64{1, 2, 5}})),
		"oracle-getmany-reply": appendFrame(nil, frameReply, MsgOracleGetMany, 10,
			reply(mustEncode(t, blobsL, [][]byte{{0xaa}, nil, {0xbb, 0xcc}}))),
		"oracle-putmany-call": appendFrame(nil, frameCall, MsgOraclePutMany, 11,
			mustEncode(t, oracleBatchL, OracleBatchArgs{HSMID: 3, Addrs: []uint64{5, 2}, Blocks: [][]byte{{0xaa}, {0xbb, 0xcc}}})),
		"commit-call": appendFrame(nil, frameCall, MsgHSMHandleCommit, 12, mustEncode(t, commitL, commitGoldenValue)),
		"audit-call":  appendFrame(nil, frameCall, MsgHSMHandleAudit, 13, mustEncode(t, auditPackageL, auditGoldenValue)),
	}
}

// preWitnessCommitFrame is commit-call as it was before commits carried
// a residue witness: the same commit, without the witness blob. A
// provider of that layout cannot move any HSM's digest.
const preWitnessCommitFrame = "01340000000c000000850000000000000009010101010101010101010101010101010101010101010101010101010101010102020202020202020202020202020202020202020202020202020202020202020303030303030303030303030303030303030303030303030303030303030303000000040000000200000001ab00000003000000000000000100000003"

// TestWireRejectsCommitWithoutWitness: the pre-witness commit frame still
// frames, and its payload is refused by the commit decoder.
func TestWireRejectsCommitWithoutWitness(t *testing.T) {
	frame, err := hex.DecodeString(preWitnessCommitFrame)
	if err != nil {
		t.Fatal(err)
	}
	kind, msg, _, payload, err := readFrame(bytes.NewReader(frame))
	if err != nil || kind != frameCall || msg != MsgHSMHandleCommit {
		t.Fatalf("pre-witness frame: kind %d msg 0x%02x err %v", kind, msg, err)
	}
	if _, err := commitL.decode(payload); err == nil {
		t.Fatal("commit without a witness decoded")
	}
}

// preHintAuditFrame is audit-call as it was before audit packages carried
// the provider's hash hint, and prePreimageCommitFrame commit-call as it
// was before commits carried the aggregate's cofactor preimage: the same
// messages, without the last blob. No HSM decodes either.
const (
	preHintAuditFrame      = "01330000000d0000010a000000000000000901010101010101010101010101010101010101010101010101010101010101010202020202020202020202020202020202020202020202020202020202020202030303030303030303030303030303030303030303030303030303030303030300000004000000020000000200000001c00100000000000000010a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0100000001c10100000001000000010b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0000000002000000000000000001c00100000000000000010c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c01"
	prePreimageCommitFrame = "01340000000c0000008b0000000000000009010101010101010101010101010101010101010101010101010101010101010102020202020202020202020202020202020202020202020202020202020202020303030303030303030303030303030303030303030303030303030303030303000000040000000200000001ab0000000300000000000000010000000300000002cdef"
)

// TestWireRejectsPreHintLayouts: the audit-package frame without a hint
// and the commit frame without a preimage still frame, and their payloads
// are refused by the decoders.
func TestWireRejectsPreHintLayouts(t *testing.T) {
	for _, c := range []struct {
		name   string
		frame  string
		tag    byte
		decode func([]byte) error
	}{
		{"audit package without a hint", preHintAuditFrame, MsgHSMHandleAudit, func(p []byte) error { _, err := auditPackageL.decode(p); return err }},
		{"commit without a preimage", prePreimageCommitFrame, MsgHSMHandleCommit, func(p []byte) error { _, err := commitL.decode(p); return err }},
	} {
		frame, err := hex.DecodeString(c.frame)
		if err != nil {
			t.Fatal(err)
		}
		kind, msg, _, payload, err := readFrame(bytes.NewReader(frame))
		if err != nil || kind != frameCall || msg != c.tag {
			t.Fatalf("%s: kind %d msg 0x%02x err %v", c.name, kind, msg, err)
		}
		if c.decode(payload) == nil {
			t.Fatalf("%s decoded", c.name)
		}
	}
}

// TestWireGoldenFrames pins the exact frame bytes against wireGolden, and
// checks every frame round-trips through readFrame.
func TestWireGoldenFrames(t *testing.T) {
	frames := goldenFrames(t)
	if len(frames) != len(wireGolden) {
		t.Fatalf("%d frames built, %d pinned", len(frames), len(wireGolden))
	}
	for name, f := range frames {
		if got := hex.EncodeToString(f); got != wireGolden[name] {
			t.Errorf("%s frame drifted:\n got %s\nwant %s", name, got, wireGolden[name])
		}
		kind, msg, id, payload, err := readFrame(bytes.NewReader(f))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(appendFrame(nil, kind, msg, id, payload), f) {
			t.Fatalf("%s did not round-trip", name)
		}
	}
}

// --- golden payloads ---

// payloadCase is one pinned payload: the message it belongs to, whether
// it is that message's call or reply payload, and its encoding.
type payloadCase struct {
	name  string
	tag   byte
	reply bool
	enc   []byte
}

// fill returns 32 copies of b.
func fill(b byte) (h [32]byte) {
	for i := range h {
		h[i] = b
	}
	return h
}

// commitGoldenValue is the commit the payload golden and the commit-call
// frame golden pin.
var commitGoldenValue = &dlog.CommitMessage{
	Header:   dlog.EpochHeader{Epoch: 9, OldDigest: fill(1), NewDigest: fill(2), Root: fill(3), NumChunks: 4, NumEntry: 2},
	AggSig:   []byte{0xab},
	Signers:  []int{0, 1, 3},
	Witness:  []byte{0xcd, 0xef},
	Preimage: []byte{0x12, 0x34},
}

// auditGoldenValue is the audit package the payload golden and the
// audit-call frame golden pin.
var auditGoldenValue = &dlog.AuditPackage{
	Header: dlog.EpochHeader{Epoch: 9, OldDigest: fill(1), NewDigest: fill(2), Root: fill(3), NumChunks: 4, NumEntry: 2},
	Chunks: []dlog.ChunkEvidence{
		{LeafBytes: []byte{0xc0}, Proof: &merkle.Proof{Index: 0, Steps: []merkle.ProofStep{{Sibling: fill(0x0a), Right: true}}}},
		{LeafBytes: []byte{0xc1}, Proof: &merkle.Proof{Index: 1, Steps: []merkle.ProofStep{{Sibling: fill(0x0b)}}}},
	},
	Neighbors: []dlog.ChunkEvidence{
		{},
		{LeafBytes: []byte{0xc0}, Proof: &merkle.Proof{Index: 0, Steps: []merkle.ProofStep{{Sibling: fill(0x0c), Right: true}}}},
	},
	Hint: []byte{0x5a, 0x5b},
}

// goldenValues encodes one fixed value of every payload layout.
func goldenValues(t testing.TB) []payloadCase {
	header := dlog.EpochHeader{Epoch: 9, OldDigest: fill(1), NewDigest: fill(2), Root: fill(3), NumChunks: 4, NumEntry: 2}
	trace := &logtree.Trace{
		Steps:       []logtree.TraceStep{{BitPos: 3, Sibling: fill(0x11)}, {BitPos: 200, Sibling: fill(0x12)}},
		LeafKey:     fill(0x22),
		LeafValHash: fill(0x33),
	}
	req := &protocol.RecoveryRequest{
		User: "alice", Salt: []byte{5, 5}, Attempt: 1, SharePos: 0, Cluster: []int{3, 9},
		CommitNonce: bytes.Repeat([]byte{0x44}, protocol.CommitNonceSize), CtHash: fill(0x55),
		ShareCt: []byte{0x66}, LogTrace: &logtree.Trace{Empty: true},
		ReplyPK: ecgroup.BaseMul(ecgroup.ScalarReduce([]byte{7})),
	}
	replies := []*protocol.RecoveryReply{{HSMIndex: 3, SharePos: 1, Box: []byte{0x77}}, {HSMIndex: 9, SharePos: 0}}
	cfg := testFleetConfig(4)
	cfg.Deterministic, cfg.EpochBatchMS, cfg.EpochMaxBatch, cfg.EpochWorkers, cfg.EpochIntervalMS = true, 2, 64, 8, 1000
	return []payloadCase{
		{"none", MsgWaitForCommit, false, mustEncode(t, noneL, none{})},
		{"fleet-config", MsgProviderConfig, true, mustEncode(t, fleetConfigL, cfg)},
		{"register", MsgRegister, false, mustEncode(t, registerL, RegisterArgs{ID: 3, Addr: "127.0.0.1:9", BFEPub: []byte{1, 2}, AggSigPub: []byte{3}})},
		{"status", MsgStatus, true, mustEncode(t, statusL, FleetStatus{Expected: 4, Registered: []int{0, 2}, RosterSent: true})},
		{"fleet-keys", MsgFetchFleet, true, mustEncode(t, blobsL, [][]byte{{1}, {2, 3}})},
		{"store", MsgStoreCiphertext, false, mustEncode(t, storeL, StoreCiphertextArgs{User: "alice", CT: []byte{1, 2, 3}})},
		{"user", MsgFetchCiphertext, false, mustEncode(t, strL, "alice")},
		{"blob", MsgFetchCiphertext, true, mustEncode(t, blobL, []byte{0xaa})},
		{"int", MsgAttemptCount, true, mustEncode(t, intL, 7)},
		{"attempt", MsgLogRecoveryAttempt, false, mustEncode(t, attemptL, AttemptArgs{User: "alice", Attempt: 2, Commitment: []byte{0xc0}})},
		{"trace", MsgFetchInclusionProof, true, mustEncode(t, traceL, trace)},
		{"recovery-request", MsgRelayRecover, false, mustEncode(t, requestL, req)},
		{"recovery-reply", MsgRelayRecover, true, mustEncode(t, recoveryReplyL, replies[0])},
		{"escrow", MsgFetchEscrow, true, mustEncode(t, escrowL, replies)},
		{"entries", MsgLogEntries, true, mustEncode(t, entriesL, []logtree.Entry{{ID: []byte("id"), Val: []byte("val")}})},
		{"digest", MsgLogDigest, true, mustEncode(t, digestL, logtree.Digest(fill(0x88)))},
		{"oracle-batch", MsgOraclePutMany, false, mustEncode(t, oracleBatchL, OracleBatchArgs{HSMID: 3, Addrs: []uint64{5, 2}, Blocks: [][]byte{{0xaa}, {}}})},
		{"epoch-header", MsgHSMChooseChunks, false, mustEncode(t, headerL, header)},
		{"chunks", MsgHSMChooseChunks, true, mustEncode(t, intsL, []int{0, 3})},
		{"audit-package", MsgHSMHandleAudit, false, mustEncode(t, auditPackageL, auditGoldenValue)},
		{"commit", MsgHSMHandleCommit, false, mustEncode(t, commitL, commitGoldenValue)},
	}
}

// readPayloadGoldens reads testdata/wire_v3_payloads.txt: one "name hex"
// line per pinned payload.
func readPayloadGoldens(t testing.TB) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/wire_v3_payloads.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		b := []byte{}
		if len(fields) == 2 {
			if b, err = hex.DecodeString(fields[1]); err != nil {
				t.Fatal(err)
			}
		}
		out[fields[0]] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireGoldenPayloads pins every payload layout byte for byte, and
// checks each golden decodes under its message's decoder and re-encodes
// to itself.
func TestWireGoldenPayloads(t *testing.T) {
	golden := readPayloadGoldens(t)
	cases := goldenValues(t)
	if len(golden) != len(cases) {
		t.Fatalf("%d payloads built, %d pinned", len(cases), len(golden))
	}
	checks := opChecks()
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s has no golden", c.name)
		}
		if !bytes.Equal(c.enc, want) {
			t.Errorf("%s payload drifted:\n got %x\nwant %x", c.name, c.enc, want)
		}
		accepted, err := checks[c.tag].side(c.reply)(want)
		if err != nil || !accepted {
			t.Errorf("%s golden refused by its decoder: %v", c.name, err)
		}
	}
}

// --- every decoder: re-encoding and fuzzing ---

// reencodes decodes p under l and reports whether it was accepted; an
// accepted payload that does not re-encode to p is an error.
func reencodes[T any](l layout[T]) func(p []byte) (bool, error) {
	return func(p []byte) (bool, error) {
		v, err := l.decode(p)
		if err != nil {
			return false, nil
		}
		q, err := l.encode(v)
		if err != nil {
			return true, fmt.Errorf("accepted payload %x does not re-encode: %v", p, err)
		}
		if !bytes.Equal(p, q) {
			return true, fmt.Errorf("accepted payload %x re-encodes to %x", p, q)
		}
		return true, nil
	}
}

// opCheck holds the re-encoding checks of one message's two payloads.
type opCheck struct{ args, reply func([]byte) (bool, error) }

func (c opCheck) side(reply bool) func([]byte) (bool, error) {
	if reply {
		return c.reply
	}
	return c.args
}

func checkOf[A, R any](m op[A, R]) (byte, opCheck) {
	return m.tag, opCheck{reencodes(m.args), reencodes(m.reply)}
}

// opChecks lists every message; TestWireOpChecksCoverRegistries keeps it
// complete.
func opChecks() map[byte]opCheck {
	out := make(map[byte]opCheck)
	add := func(tag byte, c opCheck) { out[tag] = c }
	add(checkOf(opProviderConfig))
	add(checkOf(opRegister))
	add(checkOf(opStatus))
	add(checkOf(opInstallRosters))
	add(checkOf(opFetchFleet))
	add(checkOf(opStoreCiphertext))
	add(checkOf(opFetchCiphertext))
	add(checkOf(opAttemptCount))
	add(checkOf(opReserveAttempt))
	add(checkOf(opLogRecoveryAttempt))
	add(checkOf(opWaitForCommit))
	add(checkOf(opFetchInclusionProof))
	add(checkOf(opRelayRecover))
	add(checkOf(opFetchEscrow))
	add(checkOf(opClearEscrow))
	add(checkOf(opLogEntries))
	add(checkOf(opLogDigest))
	add(checkOf(opOracleGetMany))
	add(checkOf(opOraclePutMany))
	add(checkOf(opHSMRecover))
	add(checkOf(opHSMInstallRoster))
	add(checkOf(opHSMChooseChunks))
	add(checkOf(opHSMHandleAudit))
	add(checkOf(opHSMHandleCommit))
	return out
}

// TestWireOpChecksCoverRegistries: every tag either daemon serves is in
// opChecks, so FuzzWirePayload reaches every decoder.
func TestWireOpChecksCoverRegistries(t *testing.T) {
	pd, err := NewProviderDaemon(testFleetConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	checks := opChecks()
	served := 0
	for _, reg := range []*Registry{pd.WireRegistry(), (&HSMDaemon{}).WireRegistry()} {
		for tag := range reg.handlers {
			served++
			if _, ok := checks[tag]; !ok {
				t.Errorf("tag 0x%02x is served but not fuzzed", tag)
			}
		}
	}
	if served != len(checks) {
		t.Fatalf("%d tags served, %d checked", served, len(checks))
	}
}

// FuzzWirePayload: for every tag, neither decoder panics, and whatever one
// accepts re-encodes to the same bytes; the reply envelope likewise. The
// seeds are every golden payload and every pinned v2 gob payload.
func FuzzWirePayload(f *testing.F) {
	golden := readPayloadGoldens(f)
	for _, c := range goldenValues(f) {
		f.Add(c.tag, golden[c.name])
	}
	for _, h := range v2Golden {
		frame, _ := hex.DecodeString(h)
		f.Add(frame[1], frame[wireHeaderLen:])
	}
	checks := opChecks()
	envelope := reencodes(replyL)
	f.Fuzz(func(t *testing.T, tag byte, payload []byte) {
		if _, err := envelope(payload); err != nil {
			t.Fatalf("reply envelope: %v", err)
		}
		c, ok := checks[tag]
		if !ok {
			return
		}
		for _, check := range []func([]byte) (bool, error){c.args, c.reply} {
			if _, err := check(payload); err != nil {
				t.Fatalf("tag 0x%02x: %v", tag, err)
			}
		}
	})
}

// TestWireIntegersNotTruncated: an int the decoder would not read back is
// refused on the way out, and a u32 beyond int32 on the way in.
func TestWireIntegersNotTruncated(t *testing.T) {
	for _, v := range []int{-1, 1 << 31} {
		if _, err := intL.encode(v); err == nil {
			t.Fatalf("int %d encoded", v)
		}
	}
	if _, err := traceL.encode(&logtree.Trace{Steps: []logtree.TraceStep{{BitPos: 256}}}); err == nil {
		t.Fatal("bit position 256 encoded")
	}
	if _, err := intL.decode([]byte{0x80, 0, 0, 0}); err == nil {
		t.Fatal("u32 2^31 decoded as an int")
	}
}

// TestWireMessageTagsFrozen pins the tag assignments: tags are the wire
// contract, append-only. 0x11/0x12, the single-block oracle calls, and
// 0x1c, RunEpoch, are retired and never reused.
func TestWireMessageTagsFrozen(t *testing.T) {
	frozen := map[string]byte{
		"ProviderConfig": 0x10,
		"Register":       0x13, "Status": 0x14, "InstallRosters": 0x15,
		"FetchFleet": 0x16, "StoreCiphertext": 0x17, "FetchCiphertext": 0x18,
		"AttemptCount": 0x19, "ReserveAttempt": 0x1a, "LogRecoveryAttempt": 0x1b,
		"WaitForCommit": 0x1d, "FetchInclusionProof": 0x1e,
		"RelayRecover": 0x1f, "FetchEscrow": 0x20, "ClearEscrow": 0x21,
		"LogEntries": 0x22, "LogDigest": 0x23,
		"OracleGetMany": 0x24, "OraclePutMany": 0x25,
		"HSMRecover": 0x30, "HSMInstallRoster": 0x31, "HSMChooseChunks": 0x32,
		"HSMHandleAudit": 0x33, "HSMHandleCommit": 0x34,
	}
	got := map[string]byte{
		"ProviderConfig": MsgProviderConfig,
		"Register":       MsgRegister, "Status": MsgStatus, "InstallRosters": MsgInstallRosters,
		"FetchFleet": MsgFetchFleet, "StoreCiphertext": MsgStoreCiphertext, "FetchCiphertext": MsgFetchCiphertext,
		"AttemptCount": MsgAttemptCount, "ReserveAttempt": MsgReserveAttempt, "LogRecoveryAttempt": MsgLogRecoveryAttempt,
		"WaitForCommit": MsgWaitForCommit, "FetchInclusionProof": MsgFetchInclusionProof,
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
	retired := map[byte]string{0x11: "OracleGet", 0x12: "OraclePut", 0x1c: "RunEpoch"}
	for name, tag := range got {
		if old, ok := retired[tag]; ok {
			t.Errorf("tag %s reuses 0x%02x, retired with %s", name, tag, old)
		}
	}
}

// --- v1 and v2 peers are refused ---

// v2Golden is the last v2 framing (gob payloads), pinned so v3 keeps
// refusing it.
var v2Golden = map[string]string{
	"store-call": "01170000000700000041307f0301011353746f7265436970686572746578744172677301ff80000102010455736572010c0001024354010a0000000fff800105616c696365010301020300",
	"fetch-call": "0118000000080000002a1eff81030101075573657241726701ff82000101010455736572010c0000000aff820105616c69636500",
	"reply":      "0218000000080000003028ff8303010109776972655265706c7901ff840001020103457272010c000104426f6479010a00000006ff840201aa00",

	"oracle-getmany-call":  "01240000000a000000793eff850301010f4f7261636c6542617463684172677301ff86000103010548534d49440104000105416464727301ff88000106426c6f636b7301ff8a00000016ff87020101085b5d75696e74363401ff88000106000017ff89020101095b5d5b5d75696e743801ff8a00010a00000aff860106010301020500",
	"oracle-getmany-reply": "02240000000a0000007928ff8303010109776972655265706c7901ff840001020103457272010c000104426f6479010a0000004fff84024a25ff8b0301010b426c6f636b735265706c7901ff8c0001010106426c6f636b7301ff8a00000017ff89020101095b5d5b5d75696e743801ff8a00010a00000bff8c010301aa0002bbcc0000",
	"oracle-putmany-call":  "01250000000b0000007f3eff850301010f4f7261636c6542617463684172677301ff86000103010548534d49440104000105416464727301ff88000106426c6f636b7301ff8a00000016ff87020101085b5d75696e74363401ff88000106000017ff89020101095b5d5b5d75696e743801ff8a00010a000010ff86010601020502010201aa02bbcc00",
}

// TestWireRejectsV2GobPayloads: every pinned v2 payload is refused by the
// v3 decoder of its frame, the call layout of its tag or the reply
// envelope.
func TestWireRejectsV2GobPayloads(t *testing.T) {
	checks := opChecks()
	for name, h := range v2Golden {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		kind, msg, _, payload, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var accepted bool
		if kind == frameReply {
			_, err := replyL.decode(payload)
			accepted = err == nil
		} else {
			accepted, _ = checks[msg].args(payload)
		}
		if accepted {
			t.Errorf("v2 %s payload accepted by v3", name)
		}
	}
}

// TestWireRejectsV2Preamble: a v2 client gets the reject byte, then the
// connection closes.
func TestWireRejectsV2Preamble(t *testing.T) {
	addr := serveProviderOnly(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	pre, _ := hex.DecodeString("5350524302")
	if _, err := nc.Write(pre); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2)
	if n, _ := nc.Read(buf); n != 1 || buf[0] != 0 {
		t.Fatalf("v2 preamble answered %x", buf[:n])
	}
	if n, err := nc.Read(buf); n != 0 || err == nil {
		t.Fatalf("connection still open after the reject: %d bytes, %v", n, err)
	}
}

// TestWireRejectsV1NetRPC: a stdlib net/rpc client, the v1 wire, sends no
// preamble; the server closes the connection and the client's call fails
// promptly instead of hanging.
func TestWireRejectsV1NetRPC(t *testing.T) {
	addr := serveProviderOnly(t)
	legacy, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	var blob []byte
	call := legacy.Go("Provider.FetchCiphertext", "v1-user", &blob, nil)
	select {
	case <-call.Done:
		if call.Error == nil {
			t.Fatal("v1 call succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("v1 call hung")
	}
}

// TestWireRejectsRetiredOracleTags: the single-block oracle tags, and
// RunEpoch's, are unknown to the provider.
func TestWireRejectsRetiredOracleTags(t *testing.T) {
	addr := serveProviderOnly(t)
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tag := range []byte{0x11, 0x12, 0x1c} {
		if _, err := c.Call(tctx, tag, []byte{0, 0, 0, 2}); err == nil || !strings.Contains(err.Error(), "unknown message tag") {
			t.Fatalf("tag 0x%02x: %v", tag, err)
		}
	}
}

// TestWireRejectsUnknownVersion: a client offering a future version gets
// the reject byte, not a hang.
func TestWireRejectsUnknownVersion(t *testing.T) {
	reg := NewRegistry()
	ln, addr, err := Serve("", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(append(wireMagic[:], 99)); err != nil {
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
	handle(reg, op[none, none]{msgHang, noneL, noneL}, func(ctx context.Context, _ none) (none, error) {
		enteredCh <- struct{}{}
		<-ctx.Done()
		abortedCh <- ctx.Err()
		return none{}, ctx.Err()
	})
	ln, addr, err := Serve("", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, enteredCh, abortedCh, func() { ln.Close() }
}

// TestWireClientDeadlineAbortsServerHandler: a client-side deadline on an
// in-flight call cancels the server-side handler via a cancel frame.
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
	_, err = c.Call(ctx, 0x7f, nil)
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
	if _, err := c.Call(tctx, 0x70, nil); err == nil {
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
		_, _ = c.Call(context.Background(), 0x7f, nil)
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
	echo := op[[]byte, []byte]{0x7d, blobL, blobL}
	reg := NewRegistry()
	handle(reg, echo, func(ctx context.Context, b []byte) ([]byte, error) {
		return b, nil
	})
	ln, addr, err := Serve("", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = invoke(tctx, c.Call, echo, make([]byte, maxFramePayload+1))
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversize payload returned %v", err)
	}
	// The connection is not poisoned: a normal call still round-trips.
	out, err := invoke(tctx, c.Call, echo, []byte("ok"))
	if err != nil {
		t.Fatalf("connection dead after oversize call: %v", err)
	}
	if !bytes.Equal(out, []byte("ok")) {
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
	go func() {
		_, err := c.Call(context.Background(), 0x7f, nil)
		inflight <- err
	}()
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
	if _, err := c.Call(tctx, 0x7f, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-Close call returned %v, not ErrConnClosed", err)
	}
}

// TestWireContextErrorsCrossTheWire: a handler that dies with a context
// sentinel surfaces as the same sentinel at the caller (errors.Is works
// across the process boundary).
func TestWireContextErrorsCrossTheWire(t *testing.T) {
	const msgCancelled = 0x7e
	reg := NewRegistry()
	handle(reg, op[none, none]{msgCancelled, noneL, noneL}, func(ctx context.Context, _ none) (none, error) {
		return none{}, context.Canceled
	})
	ln, addr, err := Serve("", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(tctx, msgCancelled, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("sentinel lost in transit: %v", err)
	}
}
