package transport

// messages.go is wire v3's one serialisation: every payload the daemons
// exchange, its Go type, and its layout as a fixed field walk on
// internal/codec. Integers are big-endian; a blob or string is its u32
// length, then its bytes; a list is its u32 count, then its elements.
// An int is a u32 that must fit an int32 on both ends, so no integer is
// truncated on the way out or on the way in. An optional field is a
// presence byte, 0 or 1, then the field if present.
//
// Decoding is strict: each decoder ends in Reader.Done, every count is
// bounded by Reader.Count before anything is allocated, and a point goes
// through ecgroup.PointFromBytes. Whatever a decoder accepts re-encodes to
// the same bytes.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"safetypin/internal/codec"
	"safetypin/internal/dlog"
	"safetypin/internal/ecgroup"
	"safetypin/internal/logtree"
	"safetypin/internal/merkle"
	"safetypin/internal/protocol"
)

// --- message types ---

// StoreCiphertextArgs carries a backup upload.
type StoreCiphertextArgs struct {
	User string
	CT   []byte
}

// AttemptArgs names one logged recovery attempt: the payload of both
// LogRecoveryAttempt and FetchInclusionProof.
type AttemptArgs struct {
	User       string
	Attempt    int
	Commitment []byte
}

// OracleBatchArgs addresses a batch of one HSM's outsourced blocks.
type OracleBatchArgs struct {
	HSMID  int
	Addrs  []uint64
	Blocks [][]byte // PutMany only: Blocks[i] goes to Addrs[i]
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

// none is the payload of a call without arguments or a reply without a
// result: zero bytes.
type none struct{}

// wireReply is the payload of every reply frame: the result's encoding,
// or, when Failed, the handler's error text.
type wireReply struct {
	Failed bool
	Body   []byte
}

// --- writer and reader ---

// writer appends one payload. Its first failure, an integer the decoder
// would not read back, latches and fails the encoding.
type writer struct {
	b   []byte
	err error
}

func (w *writer) u8(v int) {
	if v < 0 || v > math.MaxUint8 {
		w.fail(v)
	}
	w.b = append(w.b, byte(v))
}

func (w *writer) int(v int) {
	if v < 0 || v > math.MaxInt32 {
		w.fail(v)
	}
	w.b = codec.AppendU32(w.b, uint32(v))
}

func (w *writer) fail(v int) {
	if w.err == nil {
		w.err = fmt.Errorf("integer %d outside its wire range", v)
	}
}

func (w *writer) u64(v uint64)    { w.b = codec.AppendU64(w.b, v) }
func (w *writer) bool(v bool)     { w.b = codec.AppendBool(w.b, v) }
func (w *writer) blob(p []byte)   { w.b = codec.AppendBlob(w.b, p) }
func (w *writer) str(s string)    { w.b = codec.AppendStr(w.b, s) }
func (w *writer) hash(h [32]byte) { w.b = append(w.b, h[:]...) }
func (w *writer) count(n int)     { w.int(n) }

func (w *writer) ints(vs []int) {
	w.count(len(vs))
	for _, v := range vs {
		w.int(v)
	}
}

func (w *writer) blobs(ps [][]byte) {
	w.count(len(ps))
	for _, p := range ps {
		w.blob(p)
	}
}

// reader is a codec.Reader that can also refuse a field its bytes alone
// do not rule out: an int beyond int32, or a point off the curve.
type reader struct {
	codec.Reader
	err error
}

func (r *reader) int() int {
	v := r.U32()
	if v > math.MaxInt32 && r.err == nil {
		r.err = fmt.Errorf("integer %d outside its wire range", v)
	}
	return int(v)
}

func (r *reader) ints() []int {
	vs := make([]int, r.Count(4))
	for i := range vs {
		vs[i] = r.int()
	}
	return vs
}

func (r *reader) blobs() [][]byte {
	ps := make([][]byte, r.Count(4))
	for i := range ps {
		ps[i] = r.Blob()
	}
	return ps
}

func (r *reader) point() ecgroup.Point {
	p, err := ecgroup.PointFromBytes(r.Fixed(ecgroup.PointSize))
	if err != nil && r.err == nil {
		r.err = err
	}
	return p
}

var errMalformed = errors.New("malformed payload")

// --- layouts ---

// layout is one payload's encoding: put writes v's fields in a fixed
// order, get reads them back in the same order.
type layout[T any] struct {
	put func(w *writer, v T)
	get func(r *reader) T
}

func (l layout[T]) encode(v T) ([]byte, error) {
	var w writer
	l.put(&w, v)
	return w.b, w.err
}

func (l layout[T]) decode(b []byte) (T, error) {
	r := reader{Reader: codec.NewReader(b)}
	v := l.get(&r)
	if r.err != nil {
		var zero T
		return zero, r.err
	}
	if !r.Done() {
		var zero T
		return zero, errMalformed
	}
	return v, nil
}

var (
	noneL = layout[none]{
		put: func(*writer, none) {},
		get: func(*reader) none { return none{} },
	}
	strL   = layout[string]{(*writer).str, (*reader).Str}
	blobL  = layout[[]byte]{(*writer).blob, (*reader).Blob}
	intL   = layout[int]{(*writer).int, (*reader).int}
	intsL  = layout[[]int]{(*writer).ints, (*reader).ints}
	blobsL = layout[[][]byte]{(*writer).blobs, (*reader).blobs}

	digestL = layout[logtree.Digest]{
		put: func(w *writer, d logtree.Digest) { w.hash(d) },
		get: func(r *reader) logtree.Digest { return r.Hash() },
	}

	replyL = layout[wireReply]{
		put: func(w *writer, v wireReply) { w.bool(v.Failed); w.blob(v.Body) },
		get: func(r *reader) wireReply { return wireReply{Failed: r.Bool(), Body: r.Blob()} },
	}

	storeL = layout[StoreCiphertextArgs]{
		put: func(w *writer, a StoreCiphertextArgs) { w.str(a.User); w.blob(a.CT) },
		get: func(r *reader) StoreCiphertextArgs { return StoreCiphertextArgs{User: r.Str(), CT: r.Blob()} },
	}

	attemptL = layout[AttemptArgs]{
		put: func(w *writer, a AttemptArgs) { w.str(a.User); w.int(a.Attempt); w.blob(a.Commitment) },
		get: func(r *reader) AttemptArgs {
			return AttemptArgs{User: r.Str(), Attempt: r.int(), Commitment: r.Blob()}
		},
	}

	oracleBatchL = layout[OracleBatchArgs]{
		put: func(w *writer, a OracleBatchArgs) {
			w.int(a.HSMID)
			w.count(len(a.Addrs))
			for _, addr := range a.Addrs {
				w.u64(addr)
			}
			w.blobs(a.Blocks)
		},
		get: func(r *reader) OracleBatchArgs {
			a := OracleBatchArgs{HSMID: r.int(), Addrs: make([]uint64, r.Count(8))}
			for i := range a.Addrs {
				a.Addrs[i] = r.U64()
			}
			a.Blocks = r.blobs()
			return a
		},
	}

	registerL = layout[RegisterArgs]{
		put: func(w *writer, a RegisterArgs) { w.int(a.ID); w.str(a.Addr); w.blob(a.BFEPub); w.blob(a.AggSigPub) },
		get: func(r *reader) RegisterArgs {
			return RegisterArgs{ID: r.int(), Addr: r.Str(), BFEPub: r.Blob(), AggSigPub: r.Blob()}
		},
	}

	fleetConfigL = layout[FleetConfig]{
		put: func(w *writer, c FleetConfig) {
			for _, v := range []int{c.NumHSMs, c.ClusterSize, c.Threshold, c.BFEM, c.BFEK, c.LogChunks, c.AuditsPerHSM} {
				w.int(v)
			}
			w.u64(math.Float64bits(c.MinSignerFrac))
			w.int(c.GuessLimit)
			w.str(c.SchemeName)
			w.bool(c.Deterministic)
			w.str(c.HashModeName)
			for _, v := range []int{c.EpochBatchMS, c.EpochMaxBatch, c.EpochWorkers, c.EpochIntervalMS} {
				w.int(v)
			}
		},
		get: func(r *reader) FleetConfig {
			return FleetConfig{
				NumHSMs: r.int(), ClusterSize: r.int(), Threshold: r.int(), BFEM: r.int(), BFEK: r.int(),
				LogChunks: r.int(), AuditsPerHSM: r.int(), MinSignerFrac: math.Float64frombits(r.U64()),
				GuessLimit: r.int(), SchemeName: r.Str(), Deterministic: r.Bool(), HashModeName: r.Str(),
				EpochBatchMS: r.int(), EpochMaxBatch: r.int(), EpochWorkers: r.int(), EpochIntervalMS: r.int(),
			}
		},
	}

	statusL = layout[FleetStatus]{
		put: func(w *writer, s FleetStatus) { w.int(s.Expected); w.ints(s.Registered); w.bool(s.RosterSent) },
		get: func(r *reader) FleetStatus {
			return FleetStatus{Expected: r.int(), Registered: r.ints(), RosterSent: r.Bool()}
		},
	}

	entriesL = layout[[]logtree.Entry]{
		put: func(w *writer, es []logtree.Entry) {
			w.count(len(es))
			for _, e := range es {
				w.blob(e.ID)
				w.blob(e.Val)
			}
		},
		get: func(r *reader) []logtree.Entry {
			es := make([]logtree.Entry, r.Count(4+4))
			for i := range es {
				es[i] = logtree.Entry{ID: r.Blob(), Val: r.Blob()}
			}
			return es
		},
	}

	// traceL writes every field, Empty included, so a trace crosses the
	// wire exactly as it was built.
	traceL = layout[*logtree.Trace]{
		put: func(w *writer, t *logtree.Trace) {
			w.bool(t.Empty)
			w.count(len(t.Steps))
			for _, s := range t.Steps {
				w.u8(s.BitPos)
				w.hash(s.Sibling)
			}
			w.hash(t.LeafKey)
			w.hash(t.LeafValHash)
		},
		get: func(r *reader) *logtree.Trace {
			t := &logtree.Trace{Empty: r.Bool(), Steps: make([]logtree.TraceStep, r.Count(1+32))}
			for i := range t.Steps {
				t.Steps[i] = logtree.TraceStep{BitPos: int(r.U8()), Sibling: r.Hash()}
			}
			t.LeafKey, t.LeafValHash = r.Hash(), r.Hash()
			return t
		},
	}

	requestL = layout[*protocol.RecoveryRequest]{
		put: func(w *writer, q *protocol.RecoveryRequest) {
			w.str(q.User)
			w.blob(q.Salt)
			w.int(q.Attempt)
			w.int(q.SharePos)
			w.ints(q.Cluster)
			w.blob(q.CommitNonce)
			w.hash(q.CtHash)
			w.blob(q.ShareCt)
			w.bool(q.LogTrace != nil)
			if q.LogTrace != nil {
				traceL.put(w, q.LogTrace)
			}
			w.b = append(w.b, q.ReplyPK.Bytes()...)
		},
		get: func(r *reader) *protocol.RecoveryRequest {
			q := &protocol.RecoveryRequest{
				User: r.Str(), Salt: r.Blob(), Attempt: r.int(), SharePos: r.int(), Cluster: r.ints(),
				CommitNonce: r.Blob(), CtHash: r.Hash(), ShareCt: r.Blob(),
			}
			if r.Bool() {
				q.LogTrace = traceL.get(r)
			}
			q.ReplyPK = r.point()
			return q
		},
	}

	recoveryReplyL = layout[*protocol.RecoveryReply]{
		put: func(w *writer, p *protocol.RecoveryReply) { w.int(p.HSMIndex); w.int(p.SharePos); w.blob(p.Box) },
		get: func(r *reader) *protocol.RecoveryReply {
			return &protocol.RecoveryReply{HSMIndex: r.int(), SharePos: r.int(), Box: r.Blob()}
		},
	}

	escrowL = layout[[]*protocol.RecoveryReply]{
		put: func(w *writer, ps []*protocol.RecoveryReply) {
			w.count(len(ps))
			for _, p := range ps {
				recoveryReplyL.put(w, p)
			}
		},
		get: func(r *reader) []*protocol.RecoveryReply {
			ps := make([]*protocol.RecoveryReply, r.Count(4+4+4))
			for i := range ps {
				ps[i] = recoveryReplyL.get(r)
			}
			return ps
		},
	}

	headerL = layout[dlog.EpochHeader]{
		put: func(w *writer, h dlog.EpochHeader) {
			w.u64(h.Epoch)
			w.hash(h.OldDigest)
			w.hash(h.NewDigest)
			w.hash(h.Root)
			w.int(h.NumChunks)
			w.int(h.NumEntry)
		},
		get: func(r *reader) dlog.EpochHeader {
			return dlog.EpochHeader{
				Epoch: r.U64(), OldDigest: r.Hash(), NewDigest: r.Hash(), Root: r.Hash(),
				NumChunks: r.int(), NumEntry: r.int(),
			}
		},
	}

	// evidenceL's Proof is optional: the neighbour slot of chunk 0 is empty.
	evidenceL = layout[dlog.ChunkEvidence]{
		put: func(w *writer, e dlog.ChunkEvidence) {
			w.blob(e.LeafBytes)
			w.bool(e.Proof != nil)
			if e.Proof == nil {
				return
			}
			w.int(e.Proof.Index)
			w.count(len(e.Proof.Steps))
			for _, s := range e.Proof.Steps {
				w.hash(s.Sibling)
				w.bool(s.Right)
			}
		},
		get: func(r *reader) dlog.ChunkEvidence {
			e := dlog.ChunkEvidence{LeafBytes: r.Blob()}
			if !r.Bool() {
				return e
			}
			e.Proof = &merkle.Proof{Index: r.int(), Steps: make([]merkle.ProofStep, r.Count(32+1))}
			for i := range e.Proof.Steps {
				e.Proof.Steps[i] = merkle.ProofStep{Sibling: r.Hash(), Right: r.Bool()}
			}
			return e
		},
	}

	auditPackageL = layout[*dlog.AuditPackage]{
		put: func(w *writer, p *dlog.AuditPackage) {
			headerL.put(w, p.Header)
			for _, evs := range [][]dlog.ChunkEvidence{p.Chunks, p.Neighbors} {
				w.count(len(evs))
				for _, e := range evs {
					evidenceL.put(w, e)
				}
			}
			w.blob(p.Hint)
		},
		get: func(r *reader) *dlog.AuditPackage {
			p := &dlog.AuditPackage{Header: headerL.get(r)}
			for _, evs := range []*[]dlog.ChunkEvidence{&p.Chunks, &p.Neighbors} {
				*evs = make([]dlog.ChunkEvidence, r.Count(4+1))
				for i := range *evs {
					(*evs)[i] = evidenceL.get(r)
				}
			}
			p.Hint = r.Blob()
			return p
		},
	}

	commitL = layout[*dlog.CommitMessage]{
		put: func(w *writer, c *dlog.CommitMessage) {
			headerL.put(w, c.Header)
			w.blob(c.AggSig)
			w.ints(c.Signers)
			w.blob(c.Witness)
			w.blob(c.Preimage)
		},
		get: func(r *reader) *dlog.CommitMessage {
			return &dlog.CommitMessage{Header: headerL.get(r), AggSig: r.Blob(), Signers: r.ints(), Witness: r.Blob(), Preimage: r.Blob()}
		},
	}
)

// --- messages ---

// op is one message: its tag and the layouts of its call and reply
// payloads.
type op[A, R any] struct {
	tag   byte
	args  layout[A]
	reply layout[R]
}

var (
	opProviderConfig      = op[none, FleetConfig]{MsgProviderConfig, noneL, fleetConfigL}
	opRegister            = op[RegisterArgs, none]{MsgRegister, registerL, noneL}
	opStatus              = op[none, FleetStatus]{MsgStatus, noneL, statusL}
	opInstallRosters      = op[none, none]{MsgInstallRosters, noneL, noneL}
	opFetchFleet          = op[none, [][]byte]{MsgFetchFleet, noneL, blobsL}
	opStoreCiphertext     = op[StoreCiphertextArgs, none]{MsgStoreCiphertext, storeL, noneL}
	opFetchCiphertext     = op[string, []byte]{MsgFetchCiphertext, strL, blobL}
	opAttemptCount        = op[string, int]{MsgAttemptCount, strL, intL}
	opReserveAttempt      = op[string, int]{MsgReserveAttempt, strL, intL}
	opLogRecoveryAttempt  = op[AttemptArgs, none]{MsgLogRecoveryAttempt, attemptL, noneL}
	opWaitForCommit       = op[none, none]{MsgWaitForCommit, noneL, noneL}
	opFetchInclusionProof = op[AttemptArgs, *logtree.Trace]{MsgFetchInclusionProof, attemptL, traceL}
	opRelayRecover        = op[*protocol.RecoveryRequest, *protocol.RecoveryReply]{MsgRelayRecover, requestL, recoveryReplyL}
	opFetchEscrow         = op[string, []*protocol.RecoveryReply]{MsgFetchEscrow, strL, escrowL}
	opClearEscrow         = op[string, none]{MsgClearEscrow, strL, noneL}
	opLogEntries          = op[none, []logtree.Entry]{MsgLogEntries, noneL, entriesL}
	opLogDigest           = op[none, logtree.Digest]{MsgLogDigest, noneL, digestL}
	opOracleGetMany       = op[OracleBatchArgs, [][]byte]{MsgOracleGetMany, oracleBatchL, blobsL}
	opOraclePutMany       = op[OracleBatchArgs, none]{MsgOraclePutMany, oracleBatchL, noneL}

	opHSMRecover       = op[*protocol.RecoveryRequest, *protocol.RecoveryReply]{MsgHSMRecover, requestL, recoveryReplyL}
	opHSMInstallRoster = op[[][]byte, none]{MsgHSMInstallRoster, blobsL, noneL}
	opHSMChooseChunks  = op[dlog.EpochHeader, []int]{MsgHSMChooseChunks, headerL, intsL}
	opHSMHandleAudit   = op[*dlog.AuditPackage, []byte]{MsgHSMHandleAudit, auditPackageL, blobL}
	opHSMHandleCommit  = op[*dlog.CommitMessage, none]{MsgHSMHandleCommit, commitL, noneL}
)

// caller runs one exchange of encoded payloads: Conn.Call, or a proxy's
// redialing wrapper around it.
type caller func(ctx context.Context, tag byte, payload []byte) ([]byte, error)

// invoke runs m through call: encode the arguments, exchange, decode the
// reply.
func invoke[A, R any](ctx context.Context, call caller, m op[A, R], args A) (R, error) {
	var zero R
	p, err := m.args.encode(args)
	if err != nil {
		return zero, fmt.Errorf("transport: message 0x%02x: %w", m.tag, err)
	}
	body, err := call(ctx, m.tag, p)
	if err != nil {
		return zero, err
	}
	out, err := m.reply.decode(body)
	if err != nil {
		return zero, fmt.Errorf("transport: reply to message 0x%02x: %w", m.tag, err)
	}
	return out, nil
}

// handle registers fn as the server side of m.
func handle[A, R any](reg *Registry, m op[A, R], fn func(ctx context.Context, args A) (R, error)) {
	reg.handlers[m.tag] = func(ctx context.Context, raw []byte) ([]byte, error) {
		args, err := m.args.decode(raw)
		if err != nil {
			return nil, fmt.Errorf("transport: message 0x%02x: %w", m.tag, err)
		}
		out, err := fn(ctx, args)
		if err != nil {
			return nil, err
		}
		body, err := m.reply.encode(out)
		if err != nil {
			return nil, fmt.Errorf("transport: reply to message 0x%02x: %w", m.tag, err)
		}
		return body, nil
	}
}
