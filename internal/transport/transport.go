package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/rpc"

	"safetypin/internal/dlog"
	"safetypin/internal/logtree"
	"safetypin/internal/protocol"
)

// Serve starts a dual-protocol server on addr and returns the listener
// (close it to stop) plus the bound address. Each accepted connection is
// sniffed: v2 clients (magic preamble) get the framed context-aware
// protocol from wire; v1 clients get the net/rpc compat shim around
// legacy, registered under name. Either may be nil to serve one protocol
// only.
func Serve(name string, legacy any, wire *Registry, addr string) (net.Listener, string, error) {
	var srv *rpc.Server
	if legacy != nil {
		srv = rpc.NewServer()
		if err := srv.RegisterName(name, legacy); err != nil {
			return nil, "", err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go routeConn(conn, srv, wire)
		}
	}()
	return ln, ln.Addr().String(), nil
}

// routeConn sniffs one accepted connection and dispatches it to the
// protocol version the client speaks.
func routeConn(conn net.Conn, legacy *rpc.Server, wire *Registry) {
	var preamble [4]byte
	if _, err := io.ReadFull(conn, preamble[:]); err != nil {
		conn.Close()
		return
	}
	if preamble == wireMagic {
		var version [1]byte
		if _, err := io.ReadFull(conn, version[:]); err != nil {
			conn.Close()
			return
		}
		if wire == nil || version[0] != WireV2 {
			_, _ = conn.Write([]byte{0}) // reject: unsupported version
			conn.Close()
			return
		}
		if _, err := conn.Write([]byte{WireV2}); err != nil {
			conn.Close()
			return
		}
		serveWire(conn, wire)
		return
	}
	if legacy == nil {
		conn.Close()
		return
	}
	// v1: replay the sniffed bytes into the gob stream.
	legacy.ServeConn(replayConn{Conn: conn, r: io.MultiReader(bytes.NewReader(preamble[:]), conn)})
}

// replayConn prepends sniffed bytes back onto a connection's read side.
type replayConn struct {
	net.Conn
	r io.Reader
}

func (c replayConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// Dial connects a legacy (v1) net/rpc client; kept for compat tooling and
// the v1 shim tests. New code uses DialWire.
func Dial(addr string) (*rpc.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	return rpc.NewClient(conn), nil
}

// --- shared message types ---

// Nothing is a placeholder for empty args/replies.
type Nothing struct{}

// StoreCiphertextArgs carries a backup upload.
type StoreCiphertextArgs struct {
	User string
	CT   []byte
}

// UserArg names a user for single-argument RPCs.
type UserArg struct {
	User string
}

// IntReply carries a single integer result.
type IntReply struct {
	N int
}

// BytesReply carries a single opaque byte-string result.
type BytesReply struct {
	B []byte
}

// LogAttemptArgs carries a recovery-attempt insertion.
type LogAttemptArgs struct {
	User       string
	Attempt    int
	Commitment []byte
}

// InclusionArgs requests a log-inclusion proof.
type InclusionArgs struct {
	User       string
	Attempt    int
	Commitment []byte
}

// OracleArgs addresses one outsourced block of one HSM: the payload of
// the single-block calls (tags 0x11/0x12, v1 OracleGet/OraclePut) that
// peers older than the batch messages still send.
type OracleArgs struct {
	HSMID int
	Addr  uint64
	Block []byte // Put only
}

// OracleBatchArgs addresses a batch of one HSM's outsourced blocks.
type OracleBatchArgs struct {
	HSMID  int
	Addrs  []uint64
	Blocks [][]byte // PutMany only: Blocks[i] goes to Addrs[i]
}

// BlocksReply carries the blocks of an OracleGetMany, one per requested
// address; an address holding no block yields an empty entry.
type BlocksReply struct {
	Blocks [][]byte
}

// RegisterArgs announces a freshly provisioned HSM daemon.
type RegisterArgs struct {
	ID        int
	Addr      string // where the HSM daemon's HSM service listens
	BFEPub    []byte
	AggSigPub []byte
}

// FleetConfig is the fleet-wide configuration the provider hands to HSM
// daemons at startup so all replicas agree on parameters.
type FleetConfig struct {
	NumHSMs       int
	ClusterSize   int
	Threshold     int
	BFEM          int
	BFEK          int
	LogChunks     int
	AuditsPerHSM  int
	MinSignerFrac float64
	GuessLimit    int
	SchemeName    string // "bls12381-multisig" ("" means the same); any other is refused
	Deterministic bool

	// HashModeName must be "rfc9380". A provider daemon refuses any other
	// value, and a new HSM refuses to provision against an old provider,
	// whose config serves "" or "legacy" (docs/MIGRATION.md).
	HashModeName string

	// Provider-engine tuning (zero values → provider defaults): how long
	// the epoch scheduler gathers concurrent log insertions, the size
	// trigger that commits early, the audit fan-out pool width, and the
	// standing epoch timer cadence for daemons with no blocked waiters.
	EpochBatchMS    int
	EpochMaxBatch   int
	EpochWorkers    int
	EpochIntervalMS int
}

// FleetStatus reports registration progress.
type FleetStatus struct {
	Expected   int
	Registered []int
	RosterSent bool
}

// FleetMsg wraps the fleet public-key download.
type FleetMsg struct {
	Keys [][]byte
}

// RosterMsg wraps a signing-roster install.
type RosterMsg struct {
	Roster [][]byte
}

// ChunksMsg wraps an HSM's audit-chunk assignment.
type ChunksMsg struct {
	Chunks []int
}

// EpochHeaderMsg wraps an epoch header.
type EpochHeaderMsg struct {
	Hdr dlog.EpochHeader
}

// RecoverReplyMsg wraps a recovery reply (rpc needs a concrete pointer).
type RecoverReplyMsg struct {
	Reply protocol.RecoveryReply
}

// EscrowMsg wraps the escrowed-reply download.
type EscrowMsg struct {
	Replies []protocol.RecoveryReply
}

// TraceMsg wraps a log trace.
type TraceMsg struct {
	Trace logtree.Trace
}

// EntriesMsg wraps a committed-log snapshot.
type EntriesMsg struct {
	Entries []logtree.Entry
}

// DigestMsg wraps the provider's committed digest.
type DigestMsg struct {
	Digest logtree.Digest
}

// AuditPackageMsg wraps an epoch audit package.
type AuditPackageMsg struct {
	Pkg dlog.AuditPackage
}

// CommitMsg wraps an epoch commit.
type CommitMsg struct {
	CM dlog.CommitMessage
}
