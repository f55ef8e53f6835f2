package dlog

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"safetypin/internal/aggsig"
	"safetypin/internal/logtree"
	"safetypin/internal/merkle"
	"safetypin/internal/meter"
	"safetypin/internal/prg"
)

// Config fixes the log-protocol parameters shared by the provider and all
// HSMs.
type Config struct {
	// NumChunks is the number of audit chunks per epoch (the paper uses one
	// per HSM).
	NumChunks int
	// AuditsPerHSM is C, the number of chunks each HSM audits (the paper
	// uses λ = 128 at scale; small fleets should audit everything).
	AuditsPerHSM int
	// MinSignerFrac is the fraction of the fleet whose signatures an HSM
	// requires before accepting a new digest (1 − f_live in the paper).
	MinSignerFrac float64
	// Deterministic selects Appendix B.3's PRF-based chunk assignment.
	Deterministic bool
	// GCBudget bounds how many times the provider may garbage-collect the
	// log (§6.2); 0 means use DefaultGCBudget.
	GCBudget int
}

// DefaultGCBudget is the expected number of garbage collections over two
// years at the paper's monthly cadence.
const DefaultGCBudget = 24

// withDefaults normalizes a config.
func (c Config) withDefaults() Config {
	if c.NumChunks < 1 {
		c.NumChunks = 1
	}
	if c.AuditsPerHSM < 1 {
		c.AuditsPerHSM = 1
	}
	if c.AuditsPerHSM > c.NumChunks {
		c.AuditsPerHSM = c.NumChunks
	}
	if c.MinSignerFrac <= 0 || c.MinSignerFrac > 1 {
		c.MinSignerFrac = 0.75
	}
	if c.GCBudget == 0 {
		c.GCBudget = DefaultGCBudget
	}
	return c
}

// EpochHeader describes one proposed log update. HSMs sign its encoding.
type EpochHeader struct {
	Epoch     uint64
	OldDigest logtree.Digest
	NewDigest logtree.Digest
	Root      merkle.Hash
	NumChunks int
	NumEntry  int
}

// SigningBytes is the canonical byte string HSMs sign.
func (h EpochHeader) SigningBytes() []byte {
	var buf bytes.Buffer
	buf.WriteString("safetypin/dlog/epoch/v1|")
	binary.Write(&buf, binary.BigEndian, h.Epoch)
	buf.Write(h.OldDigest[:])
	buf.Write(h.NewDigest[:])
	buf.Write(h.Root[:])
	binary.Write(&buf, binary.BigEndian, uint32(h.NumChunks))
	binary.Write(&buf, binary.BigEndian, uint32(h.NumEntry))
	return buf.Bytes()
}

// hash keys an auditor's per-header state: its pending chunk choices and
// the hashed header it signed.
func (h EpochHeader) hash() [32]byte { return sha256.Sum256(h.SigningBytes()) }

// ChunkEvidence is one committed record plus its Merkle inclusion proof.
type ChunkEvidence struct {
	LeafBytes []byte
	Proof     *merkle.Proof
}

// AuditPackage is everything one HSM needs to audit its chunk assignment.
type AuditPackage struct {
	Header EpochHeader
	// Chunks holds the records for the HSM's chosen indices, in order.
	Chunks []ChunkEvidence
	// Neighbors holds, for each chosen index i > 0, the record of chunk
	// i−1 (so the auditor can check digest adjacency). Entries for chosen
	// index 0 are nil.
	Neighbors []ChunkEvidence
	// Hint is the provider's hash hint for Header (aggsig.ProveHash): the
	// HSM hashes the header with it and refuses a package without one.
	Hint []byte
}

// CommitMessage finalizes an epoch: the aggregate signature, the roster
// indices of the HSMs that signed, and the provider's proof for the
// aggregate (ProveCommit) — the residue witness and the cofactor
// preimage — without which no HSM accepts the commit.
type CommitMessage struct {
	Header   EpochHeader
	AggSig   []byte
	Signers  []int
	Witness  []byte
	Preimage []byte

	// hashed is the header hashed when the epoch was built, which
	// ProveCommit reuses while the header is the same. It never leaves
	// the provider.
	hashed *hashedHeader
}

// hashedHeader is one epoch header hashed onto G1, with its hint.
type hashedHeader struct {
	header EpochHeader
	msg    aggsig.Message
	hint   []byte
}

// hashEpochHeader hashes h and computes the hint HSMs hash it with.
func hashEpochHeader(h EpochHeader) *hashedHeader {
	msg, hint := aggsig.ProveHash(h.SigningBytes())
	return &hashedHeader{header: h, msg: msg, hint: hint}
}

// ProveCommit computes cm's residue witness and cofactor preimage against
// the signers' quorum key from roster: the provider's work per epoch that
// spares every HSM its final exponentiation and its membership test. The
// proof proves nothing the aggregate does not: for an aggregate that does
// not verify, every HSM rejects it like any other. A commit from Commit
// reuses the header hashed by BuildEpoch; one rebuilt from the journal
// hashes it again.
func ProveCommit(roster *aggsig.RosterCache, cm *CommitMessage) (witness, preimage []byte, err error) {
	apk, err := roster.QuorumKey(cm.Signers)
	if err != nil {
		return nil, nil, err
	}
	var m aggsig.Message
	if hh := cm.hashed; hh != nil && hh.header == cm.Header {
		m = hh.msg
	} else {
		m = aggsig.HashMessage(cm.Header.SigningBytes())
	}
	return aggsig.ProveWithKey(apk, m, cm.AggSig)
}

// --- Provider side ---

// Provider maintains the full log and drives epoch updates.
type Provider struct {
	mu      sync.Mutex
	cfg     Config
	tree    *logtree.Tree
	pending []logtree.Entry
	// pendingIDs holds the ids in pending, for Append's duplicate check.
	pendingIDs map[string]struct{}
	epoch      uint64

	// staged epoch state
	staged *stagedEpoch

	// journal hooks (see journal.go); invoked under mu so the journal
	// order matches the state-mutation order exactly.
	onAppend func(id, val []byte) error
	onCommit func(msg *CommitMessage, numEntries int) error
}

type stagedEpoch struct {
	header     EpochHeader
	hashed     *hashedHeader
	leafBytes  [][]byte
	mtree      *merkle.Tree
	nextTree   *logtree.Tree
	numEntries int
}

// NewProvider returns a provider with an empty log.
func NewProvider(cfg Config) *Provider {
	return &Provider{cfg: cfg.withDefaults(), tree: logtree.New(), pendingIDs: make(map[string]struct{})}
}

// Digest returns the digest of the last committed log.
func (p *Provider) Digest() logtree.Digest {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree.Digest()
}

// Append queues an insertion for the next epoch. It fails fast on
// identifiers already in the committed log or the pending batch.
func (p *Provider) Append(id, val []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tree.Get(id); ok {
		return fmt.Errorf("dlog: %w: %q", logtree.ErrDuplicate, string(id))
	}
	if _, ok := p.pendingIDs[string(id)]; ok {
		return fmt.Errorf("dlog: %w (pending): %q", logtree.ErrDuplicate, string(id))
	}
	if p.onAppend != nil {
		if err := p.onAppend(id, val); err != nil {
			return fmt.Errorf("dlog: journaling insertion: %w", err)
		}
	}
	p.queueLocked(id, val)
	return nil
}

// queueLocked appends (id, val) to the pending batch. Caller holds mu.
func (p *Provider) queueLocked(id, val []byte) {
	p.pending = append(p.pending, logtree.Entry{
		ID:  append([]byte(nil), id...),
		Val: append([]byte(nil), val...),
	})
	p.pendingIDs[string(id)] = struct{}{}
}

// dropPendingLocked removes the first n pending insertions. Caller holds
// mu.
func (p *Provider) dropPendingLocked(n int) {
	for _, e := range p.pending[:n] {
		delete(p.pendingIDs, string(e.ID))
	}
	p.pending = p.pending[n:]
}

// PendingLen returns the number of queued insertions.
func (p *Provider) PendingLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// ErrNoPending is returned by BuildEpoch when no insertions are queued;
// epoch schedulers treat it as "everything already committed".
var ErrNoPending = errors.New("dlog: no pending insertions")

// BuildEpoch stages the pending batch into chunked extension records and
// returns the epoch header. It fails with ErrNoPending if nothing is
// pending. Staging shares the committed trie, so an epoch costs
// O(B log L) for a batch of B over a log of L entries, plus one hash of
// the header with its hint, which every audit package carries.
func (p *Provider) BuildEpoch() (EpochHeader, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) == 0 {
		return EpochHeader{}, ErrNoPending
	}
	staging := p.tree.Clone()
	oldDigest := staging.Digest()
	numChunks := p.cfg.NumChunks
	batch := p.pending
	leaves := make([][]byte, 0, numChunks)
	for i := 0; i < numChunks; i++ {
		lo := i * len(batch) / numChunks
		hi := (i + 1) * len(batch) / numChunks
		dPrev := staging.Digest()
		proof, err := staging.ProveExtends(batch[lo:hi])
		if err != nil {
			return EpochHeader{}, err
		}
		leaves = append(leaves, appendChunkRecord(nil, ChunkRecord{Index: i, DPrev: dPrev, DNext: staging.Digest(), Proof: proof}))
	}
	mtree, err := merkle.New(leaves)
	if err != nil {
		return EpochHeader{}, err
	}
	hdr := EpochHeader{
		Epoch:     p.epoch + 1,
		OldDigest: oldDigest,
		NewDigest: staging.Digest(),
		Root:      mtree.Root(),
		NumChunks: numChunks,
		NumEntry:  len(batch),
	}
	p.staged = &stagedEpoch{
		header:     hdr,
		hashed:     hashEpochHeader(hdr),
		leafBytes:  leaves,
		mtree:      mtree,
		nextTree:   staging,
		numEntries: len(batch),
	}
	return hdr, nil
}

// AuditPackageFor assembles the evidence for one HSM's chunk choice against
// the currently staged epoch.
func (p *Provider) AuditPackageFor(chunks []int) (*AuditPackage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staged == nil {
		return nil, errors.New("dlog: no staged epoch")
	}
	pkg := &AuditPackage{Header: p.staged.header, Hint: p.staged.hashed.hint}
	for _, idx := range chunks {
		if idx < 0 || idx >= len(p.staged.leafBytes) {
			return nil, fmt.Errorf("dlog: chunk index %d out of range", idx)
		}
		ev, err := p.evidence(idx)
		if err != nil {
			return nil, err
		}
		pkg.Chunks = append(pkg.Chunks, ev)
		if idx > 0 {
			nb, err := p.evidence(idx - 1)
			if err != nil {
				return nil, err
			}
			pkg.Neighbors = append(pkg.Neighbors, nb)
		} else {
			pkg.Neighbors = append(pkg.Neighbors, ChunkEvidence{})
		}
	}
	return pkg, nil
}

// evidence builds the committed-leaf evidence for one chunk. Caller holds
// the lock.
func (p *Provider) evidence(idx int) (ChunkEvidence, error) {
	proof, err := p.staged.mtree.Prove(idx)
	if err != nil {
		return ChunkEvidence{}, err
	}
	return ChunkEvidence{LeafBytes: p.staged.leafBytes[idx], Proof: proof}, nil
}

// Commit finalizes the staged epoch after signature collection, swapping in
// the new tree. sigs[i] is signers[i]'s signature, already decoded and
// subgroup-checked (aggsig.ParseSignature), so the aggregation under the
// lock is a sum; the commit lists the signers in ascending order.
func (p *Provider) Commit(sigs []aggsig.Signature, signers []int) (*CommitMessage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staged == nil {
		return nil, errors.New("dlog: no staged epoch")
	}
	if len(sigs) != len(signers) {
		return nil, fmt.Errorf("dlog: %d signatures for %d signers", len(sigs), len(signers))
	}
	// Canonical order: the journaled Signers list is the same whatever
	// order the signatures arrived in. The sum does not depend on it.
	sorted := append([]int(nil), signers...)
	sort.Ints(sorted)
	agg, err := aggsig.AggregateParsed(sigs)
	if err != nil {
		return nil, err
	}
	msg := &CommitMessage{Header: p.staged.header, AggSig: agg, Signers: sorted, hashed: p.staged.hashed}
	if p.onCommit != nil {
		// Journal before the swap: if the journal rejects the record
		// the staged epoch stays intact and nothing was mutated, so
		// the scheduler can abort or retry.
		if err := p.onCommit(msg, p.staged.numEntries); err != nil {
			return nil, fmt.Errorf("dlog: journaling epoch commit: %w", err)
		}
	}
	p.tree = p.staged.nextTree
	p.dropPendingLocked(p.staged.numEntries)
	p.epoch = p.staged.header.Epoch
	p.staged = nil
	return msg, nil
}

// Abort discards the staged epoch (e.g. after signature collection failed);
// pending insertions stay queued for a retry.
func (p *Provider) Abort() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.staged = nil
}

// ProveInclusion serves a client's request for a log-inclusion proof
// against the committed log.
func (p *Provider) ProveInclusion(id, val []byte) (*logtree.Trace, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree.ProveIncludes(id, val)
}

// Entries returns a snapshot of the committed log for external auditors.
func (p *Provider) Entries() []logtree.Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree.Entries()
}

// GarbageCollect resets the committed log to empty (§6.2). The caller must
// separately instruct HSMs, which enforce their GC budget.
func (p *Provider) GarbageCollect() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tree = logtree.New()
	p.pending = nil
	clear(p.pendingIDs)
	p.staged = nil
}

// --- HSM (auditor) side ---

// Auditor is the HSM-side log state: the digest, the fleet roster, and the
// signing key.
type Auditor struct {
	mu     sync.Mutex
	cfg    Config
	id     int
	digest logtree.Digest
	signer aggsig.Signer
	gcLeft int
	// pending holds the random-mode chunk choices awaiting their audit:
	// headerHash → chosen chunks, only for headers that extend the current
	// digest, at most maxPendingChoices of them; emptied whenever the
	// digest moves.
	pending  map[[32]byte][]int
	meter    *meter.Meter
	minSigns int

	// roster is the fleet's aggregate-signature roster. It caches the
	// full-roster aggregate key, so each epoch's quorum key costs
	// O(missing signers) instead of an O(n) aggregation.
	roster *aggsig.RosterCache

	// signed is the header this auditor last signed, hashed onto G1:
	// HandleCommit verifies the aggregate over that same header, so it
	// reuses the hash instead of computing it again. Set by HandleAudit,
	// cleared whenever the digest moves. It belongs to this auditor alone:
	// a hash shared between HSMs would be a saving no real fleet has.
	signed *signedHeader
	// hash is hashHeader; tests count its calls.
	hash func(msg, hint []byte) (aggsig.Message, error)
}

// signedHeader is one hashed epoch header, keyed by EpochHeader.hash().
type signedHeader struct {
	key [32]byte
	msg aggsig.Message
}

// NewAuditor creates the log state for HSM id. roster must already hold
// every member's aggregate-signature public key in fleet order. A cache
// may be shared by a whole in-process fleet (RosterCache is mutex-guarded):
// one roster copy and one full-roster aggregate then serve every auditor,
// which is what makes 10k-HSM fleets start in reasonable time.
func NewAuditor(cfg Config, id int, roster *aggsig.RosterCache, signer aggsig.Signer, m *meter.Meter) (*Auditor, error) {
	cfg = cfg.withDefaults()
	size := roster.Size()
	if id < 0 || id >= size {
		return nil, fmt.Errorf("dlog: auditor id %d out of roster range %d", id, size)
	}
	minSigns := int(cfg.MinSignerFrac * float64(size))
	if minSigns < 1 {
		minSigns = 1
	}
	return &Auditor{
		cfg:      cfg,
		id:       id,
		digest:   logtree.EmptyDigest(),
		signer:   signer,
		gcLeft:   cfg.GCBudget,
		pending:  make(map[[32]byte][]int),
		meter:    m,
		minSigns: minSigns,
		roster:   roster,
		hash:     hashHeader,
	}, nil
}

// Digest returns the auditor's current accepted digest.
func (a *Auditor) Digest() logtree.Digest {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.digest
}

// maxPendingChoices bounds how many chunk choices an auditor holds for
// headers extending one digest. An honest provider needs one (a retried
// exchange re-chooses for the same header, and an audited header's choice
// is dropped); aborted epochs whose audit never completed here account for
// the slack. Without the bound every abandoned header would stay inside
// the HSM for ever, at the provider's discretion.
const maxPendingChoices = 8

// ChooseChunks selects the chunks this HSM will audit for the given header
// and remembers the choice. In deterministic mode (B.3) the choice is
// PRF(root, id) and nothing is remembered; otherwise it is sampled
// privately at random, and remembered only if the header extends the
// current digest — HandleAudit refuses any other header before it looks
// the choice up.
func (a *Auditor) ChooseChunks(h EpochHeader) ([]int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.cfg.AuditsPerHSM
	if c > h.NumChunks {
		c = h.NumChunks
	}
	if a.cfg.Deterministic {
		return DeterministicChunks(h.Root, a.id, h.NumChunks, c)
	}
	key, keep := h.hash(), h.OldDigest == a.digest
	if _, again := a.pending[key]; keep && !again && len(a.pending) >= maxPendingChoices {
		return nil, a.errAudit("%d chunk choices already await an audit at this digest", len(a.pending))
	}
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, err
	}
	idx, err := prg.Indices("safetypin/dlog/audit-random/v1", seed[:], c, h.NumChunks)
	if err != nil {
		return nil, err
	}
	if keep {
		a.pending[key] = idx
	}
	return idx, nil
}

// setDigestLocked moves the auditor to digest d and forgets every chunk
// choice made against the old one, and the hash of the header it signed.
// Caller holds mu.
func (a *Auditor) setDigestLocked(d logtree.Digest) {
	a.digest = d
	clear(a.pending)
	a.signed = nil
}

// DeterministicChunks is the Appendix B.3 assignment: any party can compute
// which chunks HSM hsmID must audit for a given Merkle root, enabling
// takeover of failed HSMs' duties.
func DeterministicChunks(root merkle.Hash, hsmID, numChunks, count int) ([]int, error) {
	if count > numChunks {
		count = numChunks
	}
	seed := make([]byte, 0, len(root)+8)
	seed = append(seed, root[:]...)
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], uint64(hsmID))
	seed = append(seed, idb[:]...)
	return prg.Indices("safetypin/dlog/audit-det/v1", seed, count, numChunks)
}

// hashHeader hashes an epoch header with the provider's hint, or, with
// hint nil, without one: HandleAudit always has a hint, and a commit for
// a header this auditor did not sign has none.
func hashHeader(msg, hint []byte) (aggsig.Message, error) {
	if hint == nil {
		return aggsig.HashMessage(msg), nil
	}
	return aggsig.HashMessageHinted(msg, hint)
}

// errAudit annotates audit failures with the auditor identity.
func (a *Auditor) errAudit(format string, args ...any) error {
	return fmt.Errorf("dlog: auditor %d: %s", a.id, fmt.Sprintf(format, args...))
}

// HandleAudit verifies an audit package against this HSM's chunk choice and
// current digest, returning this HSM's signature over the header, which
// it hashes with the package's hint. A package without a hint, or with
// one that does not verify, is refused.
func (a *Auditor) HandleAudit(pkg *AuditPackage) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := pkg.Header
	if h.OldDigest != a.digest {
		return nil, a.errAudit("header old digest does not match mine")
	}
	if h.NumChunks < 1 {
		return nil, a.errAudit("no chunks")
	}
	key := h.hash()
	want, ok := a.pending[key]
	if a.cfg.Deterministic {
		var err error
		c := a.cfg.AuditsPerHSM
		want, err = DeterministicChunks(h.Root, a.id, h.NumChunks, c)
		if err != nil {
			return nil, err
		}
	} else if !ok {
		return nil, a.errAudit("no recorded chunk choice for this header")
	}
	if len(pkg.Chunks) != len(want) || len(pkg.Neighbors) != len(want) {
		return nil, a.errAudit("package covers %d chunks, want %d", len(pkg.Chunks), len(want))
	}
	for j, idx := range want {
		rec, err := a.verifyEvidence(h, pkg.Chunks[j], idx)
		if err != nil {
			return nil, err
		}
		// Extension proof: DNext really extends DPrev by the chunk's batch.
		a.meter.Add(meter.OpHMAC, int64(len(rec.Proof.Inserts))*8)
		if err := logtree.VerifyExtends(rec.DPrev, rec.DNext, rec.Proof); err != nil {
			return nil, a.errAudit("chunk %d extension invalid: %v", idx, err)
		}
		// Anchoring and adjacency.
		if idx == 0 {
			if rec.DPrev != a.digest {
				return nil, a.errAudit("chunk 0 does not start at my digest")
			}
		} else {
			prev, err := a.verifyEvidence(h, pkg.Neighbors[j], idx-1)
			if err != nil {
				return nil, err
			}
			if rec.DPrev != prev.DNext {
				return nil, a.errAudit("chunk %d does not chain from chunk %d", idx, idx-1)
			}
		}
		if idx == h.NumChunks-1 && rec.DNext != h.NewDigest {
			return nil, a.errAudit("last chunk does not end at header digest")
		}
	}
	if len(pkg.Hint) == 0 {
		return nil, a.errAudit("package carries no hash hint")
	}
	msg, err := a.hash(h.SigningBytes(), pkg.Hint)
	if err != nil {
		return nil, a.errAudit("hash hint: %v", err)
	}
	delete(a.pending, key)
	a.signed = &signedHeader{key: key, msg: msg}
	a.meter.Add(meter.OpBLSSign, 1)
	return a.signer.SignMessage(a.signed.msg)
}

// verifyEvidence checks a committed leaf against the header root and
// returns the decoded record.
func (a *Auditor) verifyEvidence(h EpochHeader, ev ChunkEvidence, wantIdx int) (ChunkRecord, error) {
	if ev.Proof == nil {
		return ChunkRecord{}, a.errAudit("missing evidence for chunk %d", wantIdx)
	}
	if ev.Proof.Index != wantIdx {
		return ChunkRecord{}, a.errAudit("evidence index %d, want %d", ev.Proof.Index, wantIdx)
	}
	a.meter.Add(meter.OpHMAC, int64(len(ev.Proof.Steps))+1)
	if !merkle.Verify(h.Root, h.NumChunks, ev.LeafBytes, ev.Proof) {
		return ChunkRecord{}, a.errAudit("evidence for chunk %d not under root", wantIdx)
	}
	rec, err := decodeChunkRecord(ev.LeafBytes)
	if err != nil {
		return ChunkRecord{}, a.errAudit("chunk %d: %v", wantIdx, err)
	}
	if rec.Index != wantIdx {
		return ChunkRecord{}, a.errAudit("record index %d, want %d", rec.Index, wantIdx)
	}
	return rec, nil
}

// HandleCommit verifies the aggregate signature with the commit's residue
// witness and cofactor preimage and advances the digest. A commit without
// either, or with one that does not decode, is refused.
func (a *Auditor) HandleCommit(cm *CommitMessage) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cm.Header.OldDigest != a.digest {
		return a.errAudit("commit old digest does not match mine")
	}
	if len(cm.Signers) < a.minSigns {
		return a.errAudit("only %d signers, need %d", len(cm.Signers), a.minSigns)
	}
	ok, err := a.verifyQuorum(cm)
	if err != nil {
		return fmt.Errorf("dlog: auditor %d: verifying aggregate: %w", a.id, err)
	}
	if !ok {
		return a.errAudit("aggregate signature invalid")
	}
	a.setDigestLocked(cm.Header.NewDigest)
	return nil
}

// verifyQuorum checks the commit's aggregate signature against the quorum
// key: the roster's cached full aggregate minus the missing signers, its
// members in roster order. RosterCache.QuorumKey validates the signer
// indices (in range, no duplicates), and the header is hashed only if it
// is not the one this auditor signed — without a hint, as a lagging HSM
// that never saw the audit package must. Caller holds mu.
func (a *Auditor) verifyQuorum(cm *CommitMessage) (bool, error) {
	apk, err := a.roster.QuorumKey(cm.Signers)
	if err != nil {
		return false, err
	}
	var m aggsig.Message
	if a.signed != nil && a.signed.key == cm.Header.hash() {
		m = a.signed.msg
	} else if m, err = a.hash(cm.Header.SigningBytes(), nil); err != nil {
		return false, err
	}
	// One Miller loop over two pairs with the provider's witness folded
	// in and a test for membership in Fp6* — no final exponentiation,
	// whatever the signer count — plus the quorum key's n−1 batch-affine
	// G2 additions and the cofactor clearing that maps the provider's
	// preimage onto the aggregate signature parsed off the wire, in place
	// of its membership test.
	a.meter.Add(meter.OpMillerLoop, 2)
	a.meter.Add(meter.OpResidueCheck, 1)
	a.meter.Add(meter.OpG2Add, int64(len(cm.Signers))-1)
	a.meter.Add(meter.OpCofactorClear, 1)
	return aggsig.VerifyWithWitness(apk, m, cm.AggSig, cm.Witness, cm.Preimage)
}

// VerifyInclusion checks a client's log-inclusion proof against the
// auditor's current digest (the check each HSM performs before releasing a
// decryption share, step Ð of Figure 3).
func (a *Auditor) VerifyInclusion(id, val []byte, tr *logtree.Trace) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.meter.Add(meter.OpHMAC, int64(len(tr.Steps))+1)
	return logtree.VerifyIncludes(a.digest, id, val, tr)
}

// GarbageCollect resets the digest to the empty log, enforcing the bounded
// GC budget (§6.2).
//
//spin:testhook open item: The log's lifecycle as protocol
func (a *Auditor) GarbageCollect() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.gcLeft <= 0 {
		return a.errAudit("garbage-collection budget exhausted")
	}
	a.gcLeft--
	a.setDigestLocked(logtree.EmptyDigest())
	return nil
}

// SyncDigestForTest installs a digest obtained out of band. Provisioning a
// brand-new HSM into a running fleet requires a trust-anchored digest
// handoff (the paper's group-membership extension, §6); the experiment
// harness uses this to fast-forward freshly created auditors past bulk
// setup epochs it does not measure.
func (a *Auditor) SyncDigestForTest(d logtree.Digest) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.setDigestLocked(d)
	return nil
}

// GCRemaining reports the remaining garbage collections.
//
//spin:testhook open item: The log's lifecycle as protocol
func (a *Auditor) GCRemaining() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gcLeft
}

// --- external auditor (§6.3) ---

// Replay rebuilds a log from its entries and checks it reaches the claimed
// digest; any third party can run this against published log snapshots.
func Replay(entries []logtree.Entry, want logtree.Digest) error {
	t := logtree.New()
	for i, e := range entries {
		if err := t.Insert(e.ID, e.Val); err != nil {
			return fmt.Errorf("dlog: replay entry %d: %w", i, err)
		}
	}
	if t.Digest() != want {
		return errors.New("dlog: replayed digest does not match")
	}
	return nil
}

// CheckExtendsSnapshot verifies that newEntries extends oldEntries as a
// plain prefix with no duplicate identifiers — the external-auditor check
// of §6.3.
func CheckExtendsSnapshot(oldEntries, newEntries []logtree.Entry) error {
	if len(newEntries) < len(oldEntries) {
		return errors.New("dlog: new log shorter than old log")
	}
	for i := range oldEntries {
		if !bytes.Equal(oldEntries[i].ID, newEntries[i].ID) || !bytes.Equal(oldEntries[i].Val, newEntries[i].Val) {
			return fmt.Errorf("dlog: entry %d mutated", i)
		}
	}
	seen := make(map[string]bool, len(newEntries))
	for i, e := range newEntries {
		if seen[string(e.ID)] {
			return fmt.Errorf("dlog: duplicate identifier at entry %d", i)
		}
		seen[string(e.ID)] = true
	}
	return nil
}
