package provider

// durable.go is the provider's side of the durability contract with
// internal/storage: which state changes are journaled, how the journal
// is replayed into a fresh provider (Open), and how live state is
// compacted into snapshots.
//
// Two invariants carry the whole design:
//
//  1. Journal order equals state-mutation order. Every journal append
//     happens under the same lock as the mutation it describes (shard
//     mutex, dlog mutex, oracle-handle mutex), so replaying records in
//     sequence reproduces the exact interleaving — which matters
//     because an epoch-commit record consumes the first NumEntries
//     pending log insertions by position.
//
//  2. Record application is idempotent. A snapshot's BaseSeq is
//     captured *before* state is read, so a record can be reflected in
//     both the snapshot and the WAL tail; applying it twice must be a
//     no-op. Attempt counters use max, ciphertexts carry explicit
//     indices, escrow is keyed by (user, attempt, position), oracle
//     blocks by address, and epoch commits by epoch number.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"safetypin/internal/dlog"
	"safetypin/internal/logtree"
	"safetypin/internal/protocol"
	"safetypin/internal/securestore"
	"safetypin/internal/storage"
)

// RosterEntry is one journaled fleet registration: enough for a
// restarted provider daemon to re-dial and re-register its HSMs without
// waiting for them to reconnect first.
type RosterEntry struct {
	ID     int
	Addr   string
	BFEPub []byte
	AggPub []byte
}

// providerOracle is the journaling wrapper around one HSM's hosted
// block store. Writes are journaled in the write-only durability class:
// appended immediately (ordering) but only forced to disk at the next
// epoch barrier — a puncture rewrites the union of K root-to-leaf paths,
// and per-block fsyncs would destroy the hot path.
type providerOracle struct {
	p     *Provider
	hsmID int
	mu    sync.Mutex // orders journal appends against mem writes and swaps
	mem   *securestore.MemOracle
}

// GetMany implements securestore.Oracle.
func (o *providerOracle) GetMany(addrs []uint64) ([][]byte, error) {
	o.mu.Lock()
	mem := o.mem
	o.mu.Unlock()
	return mem.GetMany(addrs)
}

// PutMany implements securestore.Oracle. The batch is journaled block by
// block, in order, under one hold of o.mu — the records a run of
// single-block writes would have left — and reaches mem only once every
// record is appended, so a journal failure leaves the served state alone.
func (o *providerOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	if err := securestore.CheckPut(addrs, blocks); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, addr := range addrs {
		if err := o.p.journal(&storage.OraclePutRecord{
			HSMID: uint32(o.hsmID),
			Addr:  addr,
			Block: blocks[i],
		}); err != nil {
			return err
		}
	}
	return o.mem.PutMany(addrs, blocks)
}

// --- journal helpers ---------------------------------------------------

// journal appends one record; a nil store (volatile provider) is a
// no-op.
func (p *Provider) journal(rec storage.Record) error {
	if p.store == nil {
		return nil
	}
	_, err := p.store.Append(rec)
	return err
}

// syncStore is the durability barrier.
func (p *Provider) syncStore() error {
	if p.store == nil {
		return nil
	}
	return p.store.Sync()
}

// journalSync appends and immediately syncs (the synced-before-ack
// class).
func (p *Provider) journalSync(rec storage.Record) error {
	if err := p.journal(rec); err != nil {
		return err
	}
	return p.syncStore()
}

// journalLogInsert is the dlog onAppend hook (runs under the dlog
// mutex).
func (p *Provider) journalLogInsert(id, val []byte) error {
	return p.journal(&storage.LogInsertRecord{ID: id, Val: val, Pending: true})
}

// journalEpochCommit is the dlog onCommit hook (runs under the dlog
// mutex, before the tree swap). The full commit message is journaled so
// a reopened provider can re-deliver it to HSMs that missed the fan-out.
func (p *Provider) journalEpochCommit(cm *dlog.CommitMessage, numEntries int) error {
	signers := make([]uint32, len(cm.Signers))
	for i, s := range cm.Signers {
		signers[i] = uint32(s)
	}
	if err := p.journal(&storage.EpochCommitRecord{
		Epoch:      cm.Header.Epoch,
		NumEntries: uint32(numEntries),
		OldDigest:  [32]byte(cm.Header.OldDigest),
		NewDigest:  [32]byte(cm.Header.NewDigest),
		Root:       cm.Header.Root,
		NumChunks:  uint32(cm.Header.NumChunks),
		NumEntry:   uint32(cm.Header.NumEntry),
		AggSig:     cm.AggSig,
		Signers:    signers,
	}); err != nil {
		return err
	}
	p.setLastCommit(cm)
	return nil
}

func (p *Provider) setLastCommit(cm *dlog.CommitMessage) {
	p.durMu.Lock()
	p.lastCommit = cm
	p.durMu.Unlock()
}

// --- recovery ----------------------------------------------------------

// recover replays the journal into the freshly constructed provider,
// then drops whatever pending log insertions survived — their clients
// were never acknowledged (WaitForCommit had not returned), and a
// half-gathered batch must not leak into the next epoch. The drop is
// itself journaled and synced: without that, a later replay would feed
// the dropped insertions into subsequent epoch-commit records and
// diverge.
func (p *Provider) recover() error {
	if _, err := p.store.Replay(p.applyRecord); err != nil {
		return fmt.Errorf("provider: journal replay: %w", err)
	}
	if n := p.log.DropPending(); n > 0 {
		if err := p.journal(&storage.PendingDropRecord{Count: uint32(n)}); err != nil {
			return fmt.Errorf("provider: journaling pending drop: %w", err)
		}
	}
	if err := p.store.Sync(); err != nil {
		return fmt.Errorf("provider: recovery sync: %w", err)
	}
	return nil
}

// applyRecord applies one journal record to provider state. seq is 0
// for snapshot records, which matters only for epoch commits: a
// snapshot's entries are restored directly into the committed tree, so
// its commit marker just sets the epoch counter and verifies the
// digest, while a WAL commit consumes pending insertions.
func (p *Provider) applyRecord(seq uint64, rec storage.Record) error {
	switch r := rec.(type) {
	case *storage.AttemptRecord:
		s := p.shardFor(r.User)
		s.mu.Lock()
		if int(r.Attempt)+1 > s.attempts[r.User] {
			s.attempts[r.User] = int(r.Attempt) + 1
		}
		s.mu.Unlock()

	case *storage.AttemptRejectRecord:
		// A rejection was served when the counter stood at Attempt; the
		// replayed counter must be at least that, even if the records
		// that advanced it were lost in the unsynced tail.
		s := p.shardFor(r.User)
		s.mu.Lock()
		if int(r.Attempt) > s.attempts[r.User] {
			s.attempts[r.User] = int(r.Attempt)
		}
		s.mu.Unlock()

	case *storage.CiphertextRecord:
		s := p.shardFor(r.User)
		s.mu.Lock()
		list := s.cts[r.User]
		for len(list) <= int(r.Index) {
			list = append(list, nil)
		}
		list[r.Index] = append([]byte(nil), r.Blob...)
		s.cts[r.User] = list
		s.mu.Unlock()

	case *storage.LogInsertRecord:
		if r.Pending {
			return p.log.RestoreAppend(r.ID, r.Val)
		}
		return p.log.RestoreCommitted(r.ID, r.Val)

	case *storage.EpochCommitRecord:
		if seq == 0 {
			p.log.SetEpoch(r.Epoch)
			if got := p.log.Digest(); got != logtree.Digest(r.NewDigest) {
				return fmt.Errorf("provider: snapshot log digest mismatch at epoch %d", r.Epoch)
			}
		} else if err := p.log.RestoreCommit(int(r.NumEntries), r.Epoch, logtree.Digest(r.NewDigest)); err != nil {
			return err
		}
		if len(r.AggSig) > 0 {
			p.setLastCommit(commitMessageFromRecord(r))
		}

	case *storage.EscrowRecord:
		s := p.shardFor(r.User)
		s.mu.Lock()
		box := s.escrow[r.User]
		att := int(r.Attempt)
		switch {
		case box == nil || att > box.attempt:
			box = &escrowBox{attempt: att, replies: make(map[int]*protocol.RecoveryReply)}
			s.escrow[r.User] = box
		case att < box.attempt:
			s.mu.Unlock()
			return nil
		}
		pos := int(r.SharePos)
		if _, seen := box.replies[pos]; !seen {
			box.order = append(box.order, pos)
		}
		box.replies[pos] = &protocol.RecoveryReply{
			HSMIndex: int(r.HSMIndex),
			SharePos: pos,
			Box:      append([]byte(nil), r.Box...),
		}
		s.mu.Unlock()

	case *storage.EscrowClearRecord:
		s := p.shardFor(r.User)
		s.mu.Lock()
		delete(s.escrow, r.User)
		s.mu.Unlock()

	case *storage.OraclePutRecord:
		o := p.oracleHandle(int(r.HSMID))
		o.mu.Lock()
		err := o.mem.PutMany([]uint64{r.Addr}, [][]byte{r.Block})
		o.mu.Unlock()
		return err

	case *storage.OracleClearRecord:
		o := p.oracleHandle(int(r.HSMID))
		o.mu.Lock()
		o.mem = securestore.NewMemOracle()
		o.mu.Unlock()

	case *storage.RosterRecord:
		p.fleetMu.Lock()
		p.roster[int(r.ID)] = RosterEntry{
			ID:     int(r.ID),
			Addr:   r.Addr,
			BFEPub: append([]byte(nil), r.BFEPub...),
			AggPub: append([]byte(nil), r.AggPub...),
		}
		p.fleetMu.Unlock()

	case *storage.GCRecord:
		p.log.GarbageCollect()
		for _, s := range p.shards {
			s.mu.Lock()
			s.attempts = make(map[string]int)
			s.mu.Unlock()
		}

	case *storage.PendingDropRecord:
		p.log.DropPendingN(int(r.Count))

	default:
		return fmt.Errorf("provider: unhandled journal record %T", rec)
	}
	return nil
}

func commitMessageFromRecord(r *storage.EpochCommitRecord) *dlog.CommitMessage {
	signers := make([]int, len(r.Signers))
	for i, s := range r.Signers {
		signers[i] = int(s)
	}
	return &dlog.CommitMessage{
		Header: dlog.EpochHeader{
			Epoch:     r.Epoch,
			OldDigest: logtree.Digest(r.OldDigest),
			NewDigest: logtree.Digest(r.NewDigest),
			Root:      r.Root,
			NumChunks: int(r.NumChunks),
			NumEntry:  int(r.NumEntry),
		},
		AggSig:  append([]byte(nil), r.AggSig...),
		Signers: signers,
	}
}

// --- snapshots ---------------------------------------------------------

// buildSnapshot renders current provider state as a flat record list.
// BaseSeq is captured before any state is read: a record journaled
// concurrently may then appear both here and in the WAL tail, which
// idempotent application absorbs; the reverse (a record in neither)
// cannot happen. Iteration orders are sorted so the encoding — and
// therefore StateDigest — is deterministic.
func (p *Provider) buildSnapshot() *storage.Snapshot {
	snap := &storage.Snapshot{}
	if p.store != nil {
		snap.BaseSeq = p.store.LastSeq()
	}

	// Fleet roster and oracle handles.
	p.fleetMu.RLock()
	roster := make(map[int]RosterEntry, len(p.roster))
	rosterIDs := make([]int, 0, len(p.roster))
	for id, e := range p.roster {
		roster[id] = e
		rosterIDs = append(rosterIDs, id)
	}
	oracleIDs := make([]int, 0, len(p.oracles))
	oracleHandles := make(map[int]*providerOracle, len(p.oracles))
	for id, o := range p.oracles {
		oracleIDs = append(oracleIDs, id)
		oracleHandles[id] = o
	}
	p.fleetMu.RUnlock()
	sort.Ints(rosterIDs)
	sort.Ints(oracleIDs)
	for _, id := range rosterIDs {
		e := roster[id]
		snap.Records = append(snap.Records, &storage.RosterRecord{
			ID: uint32(id), Addr: e.Addr, BFEPub: e.BFEPub, AggPub: e.AggPub,
		})
	}

	// Log: committed entries, epoch marker, pending batch.
	committed, pending, epoch, digest := p.log.SnapshotState()
	for _, e := range committed {
		snap.Records = append(snap.Records, &storage.LogInsertRecord{ID: e.ID, Val: e.Val})
	}
	if epoch > 0 {
		marker := &storage.EpochCommitRecord{Epoch: epoch, NewDigest: [32]byte(digest)}
		p.durMu.Lock()
		if cm := p.lastCommit; cm != nil && cm.Header.Epoch == epoch {
			marker.OldDigest = [32]byte(cm.Header.OldDigest)
			marker.Root = cm.Header.Root
			marker.NumChunks = uint32(cm.Header.NumChunks)
			marker.NumEntry = uint32(cm.Header.NumEntry)
			marker.AggSig = cm.AggSig
			for _, s := range cm.Signers {
				marker.Signers = append(marker.Signers, uint32(s))
			}
		}
		p.durMu.Unlock()
		snap.Records = append(snap.Records, marker)
	}
	for _, e := range pending {
		snap.Records = append(snap.Records, &storage.LogInsertRecord{ID: e.ID, Val: e.Val, Pending: true})
	}

	// Per-user state, globally sorted by user for determinism.
	type userState struct {
		attempts int
		cts      [][]byte
		escrow   *escrowBox
	}
	users := make(map[string]*userState)
	get := func(u string) *userState {
		st, ok := users[u]
		if !ok {
			st = &userState{}
			users[u] = st
		}
		return st
	}
	for _, s := range p.shards {
		s.mu.Lock()
		for u, n := range s.attempts {
			get(u).attempts = n
		}
		for u, list := range s.cts {
			cp := make([][]byte, len(list))
			for i, b := range list {
				cp[i] = append([]byte(nil), b...)
			}
			get(u).cts = cp
		}
		for u, box := range s.escrow {
			cp := &escrowBox{
				attempt: box.attempt,
				replies: make(map[int]*protocol.RecoveryReply, len(box.replies)),
				order:   append([]int(nil), box.order...),
			}
			for pos, r := range box.replies {
				cp.replies[pos] = r
			}
			get(u).escrow = cp
		}
		s.mu.Unlock()
	}
	names := make([]string, 0, len(users))
	for u := range users {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		st := users[u]
		if st.attempts > 0 {
			snap.Records = append(snap.Records, &storage.AttemptRecord{
				User: u, Attempt: uint32(st.attempts - 1),
			})
		}
		for i, blob := range st.cts {
			if blob == nil {
				continue
			}
			snap.Records = append(snap.Records, &storage.CiphertextRecord{
				User: u, Index: uint32(i), Blob: blob,
			})
		}
		if box := st.escrow; box != nil {
			for _, pos := range box.order {
				r := box.replies[pos]
				snap.Records = append(snap.Records, &storage.EscrowRecord{
					User:     u,
					Attempt:  uint32(box.attempt),
					HSMIndex: uint32(r.HSMIndex),
					SharePos: uint32(r.SharePos),
					Box:      r.Box,
				})
			}
		}
	}

	// Hosted oracle blocks, sorted by (HSM, address).
	for _, id := range oracleIDs {
		o := oracleHandles[id]
		o.mu.Lock()
		blocks := o.mem.Blocks()
		o.mu.Unlock()
		addrs := make([]uint64, 0, len(blocks))
		for a := range blocks {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			snap.Records = append(snap.Records, &storage.OraclePutRecord{
				HSMID: uint32(id), Addr: a, Block: blocks[a],
			})
		}
	}
	return snap
}

// SnapshotNow compacts the journal into a fresh snapshot. The scheduler
// calls it every SnapshotEvery epoch commits; Close calls it for a
// clean shutdown; administrative tooling may call it at will. No-op for
// a volatile provider.
func (p *Provider) SnapshotNow() error {
	if p.store == nil {
		return nil
	}
	return p.store.WriteSnapshot(p.buildSnapshot())
}

// StateDigest hashes the provider's durable state — the canonical
// encoding of a freshly built snapshot. Recovering a provider twice
// from the same journal must yield identical digests (the replay
// idempotence property the crash tests assert).
//
//spin:testhook the root package's crash tests compare replayed state
func (p *Provider) StateDigest() [32]byte {
	h := sha256.New()
	for _, rec := range p.buildSnapshot().Records {
		h.Write(storage.EncodeRecord(rec))
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// --- roster + commit resend -------------------------------------------

// JournalRoster records an HSM's registration durably (synced before
// returning: a daemon acks registration only once it would survive a
// crash).
func (p *Provider) JournalRoster(e RosterEntry) error {
	p.fleetMu.Lock()
	p.roster[e.ID] = e
	p.fleetMu.Unlock()
	return p.journalSync(&storage.RosterRecord{
		ID:     uint32(e.ID),
		Addr:   e.Addr,
		BFEPub: e.BFEPub,
		AggPub: e.AggPub,
	})
}

// RecoveredRoster returns the journaled fleet roster sorted by HSM ID —
// what a restarted daemon uses to re-dial its fleet.
func (p *Provider) RecoveredRoster() []RosterEntry {
	p.fleetMu.RLock()
	out := make([]RosterEntry, 0, len(p.roster))
	for _, e := range p.roster {
		out = append(out, e)
	}
	p.fleetMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ResendLastCommit re-delivers the most recent committed epoch's commit
// message to every registered HSM, returning how many accepted it. A
// provider that crashed between the durable commit and the commit
// fan-out leaves HSMs one digest behind — they would reject the next
// epoch's OldDigest — so reopening ends with this best-effort resend.
// HSMs already at the new digest reject the duplicate harmlessly. The
// journal keeps no witness and no preimage, so a commit rebuilt from it
// is proved again, both from the journaled aggregate, against the
// signing roster.
func (p *Provider) ResendLastCommit(ctx context.Context) int {
	p.durMu.Lock()
	var cm dlog.CommitMessage
	if p.lastCommit != nil {
		cm = *p.lastCommit
	}
	p.durMu.Unlock()
	if len(cm.AggSig) == 0 {
		return 0
	}
	handles := p.handles()
	roster := p.signingRoster()
	if len(handles) == 0 || roster == nil {
		return 0
	}
	if cm.Witness == nil || cm.Preimage == nil {
		w, pre, err := dlog.ProveCommit(roster, &cm)
		if err != nil {
			return 0
		}
		cm.Witness, cm.Preimage = w, pre
	}
	delivered := 0
	for _, r := range fanOut(ctx, handles, p.engine.EpochWorkers, func(ctx context.Context, h HSMHandle) hsmResult {
		return hsmResult{id: h.ID(), err: p.commitOne(ctx, h, &cm)}
	}) {
		if r.err == nil {
			delivered++
		}
	}
	return delivered
}
