package main

// sut.go is the benchmark's only contact with the system under test: the
// only file that imports repo packages and names their constructors. It
// builds the two kinds of fleet (in-process Deployment, daemons over
// loopback TCP), wraps the three boundaries the trace decorates
// (client.Provider, provider.HSMHandle, storage.Engine), and shapes inputs
// for the leaf probes. Everything that measures sits behind it, so an API
// change in the repo has one place to look.

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"safetypin"
	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/bls"
	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/lhe"
	"safetypin/internal/logtree"
	"safetypin/internal/merkle"
	"safetypin/internal/meter"
	"safetypin/internal/protocol"
	"safetypin/internal/provider"
	"safetypin/internal/securestore"
	"safetypin/internal/shamir"
	"safetypin/internal/storage"
	"safetypin/internal/transport"
)

// guessLimit lets one preloaded user recover round after round; the
// paper's one-guess budget would end a closed loop after its first lap.
const guessLimit = 1 << 20

// fleet is one provisioned system under test.
type fleet struct {
	sh     shape
	tr     *tracer
	params lhe.Params
	keys   lhe.Encryptor
	apis   []client.Provider // one per client connection (one in-process)
	next   atomic.Int64      // round-robin over apis
	prov   *provider.Provider
	dep    *safetypin.Deployment // nil over TCP
	live   []int                 // HSM ids that answer (in-process)
	wal    *storage.FileEngine   // nil for a volatile provider
	relays struct{ client, oracle, hsm *relayGroup }
	stop   []func() // run in reverse order by close
}

// buildFleet provisions the fleet sh describes. With a tracer, every
// boundary is decorated and HSM meters are on; without, nothing is
// wrapped, so the untraced run pays for no decorator. scratch is a
// directory inside the checkout for the WAL.
func buildFleet(sh shape, tr *tracer, scratch string) (*fleet, error) {
	f := &fleet{sh: sh, tr: tr}
	var err error
	if f.params, err = lhe.NewParams(sh.HSMs, sh.Cluster, sh.Threshold); err != nil {
		return nil, err
	}
	var eng storage.Engine
	if sh.Storage == "wal" {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		f.stop = append(f.stop, func() { os.RemoveAll(dir) })
		if f.wal, err = storage.OpenFile(dir); err != nil {
			f.close()
			return nil, err
		}
		eng = f.wal
		if tr != nil {
			eng = &tracedEngine{Engine: f.wal, tr: tr}
		}
	}
	if sh.Transport == "tcp" {
		err = f.buildTCP(eng)
	} else {
		err = f.buildInProcess(eng)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) buildInProcess(eng storage.Engine) error {
	sh := f.sh
	d, err := safetypin.NewDeployment(safetypin.Params{
		NumHSMs:     sh.HSMs,
		ClusterSize: sh.Cluster,
		Threshold:   sh.Threshold,
		BFE:         bfe.Params{M: sh.BFEM, K: sh.BFEK},
		GuessLimit:  guessLimit,
		Scheme:      aggsig.BLS(),
		Metered:     f.tr != nil,
		Engine: provider.EngineConfig{
			BatchWindow:   time.Duration(sh.BatchWindowMS) * time.Millisecond,
			MaxBatch:      sh.MaxBatch,
			Storage:       eng,
			SnapshotEvery: -1,
		},
	})
	if err != nil {
		return err
	}
	f.dep, f.prov, f.keys = d, d.Provider, d.Fleet()
	f.stop = append(f.stop, func() { d.Close() })
	dead := make(map[int]bool)
	for k := 0; k < sh.DeadHSMs; k++ {
		id := (2*k + 1) * sh.HSMs / (2 * sh.DeadHSMs) // spread over the roster
		dead[id] = true
		d.Provider.Register(deadHSM(id))
	}
	for i, h := range d.HSMs {
		if dead[i] {
			continue
		}
		f.live = append(f.live, i)
		if f.tr != nil {
			d.Provider.Register(&tracedHSM{HSMHandle: h, tr: f.tr})
		}
	}
	f.apis = []client.Provider{f.decorate(d.Provider)}
	return nil
}

// buildTCP stands up cmd/providerd and cmd/hsmd's wiring in this process:
// every client call, every HSM exchange and every outsourced key block
// crosses a loopback socket. In the traced run each of the three links runs
// through a byte-counting relay.
func (f *fleet) buildTCP(eng storage.Engine) error {
	sh, ctx := f.sh, context.Background()
	cfg := transport.FleetConfig{
		NumHSMs:       sh.HSMs,
		ClusterSize:   sh.Cluster,
		Threshold:     sh.Threshold,
		BFEM:          sh.BFEM,
		BFEK:          sh.BFEK,
		LogChunks:     sh.HSMs,
		AuditsPerHSM:  2,
		MinSignerFrac: 0.75,
		GuessLimit:    guessLimit,
		SchemeName:    "bls12381-multisig",
		HashModeName:  "rfc9380",
		EpochBatchMS:  sh.BatchWindowMS,
		EpochMaxBatch: sh.MaxBatch,
	}
	pd, err := transport.NewProviderDaemon(cfg, transport.WithStorageEngine(eng), transport.WithSnapshotEvery(-1))
	if err != nil {
		return err
	}
	f.prov = pd.Provider()
	f.stop = append(f.stop, func() { pd.Close() })
	paddr, err := f.serve("Provider", pd.Service(), pd.WireRegistry())
	if err != nil {
		return err
	}
	clientAddr, oracleAddr := paddr, paddr
	if f.tr != nil {
		f.relays.client, f.relays.oracle, f.relays.hsm = &relayGroup{}, &relayGroup{}, &relayGroup{}
		f.stop = append(f.stop, f.relays.client.close, f.relays.oracle.close, f.relays.hsm.close)
		if clientAddr, err = f.relays.client.front(paddr); err != nil {
			return err
		}
		if oracleAddr, err = f.relays.oracle.front(paddr); err != nil {
			return err
		}
	}
	admin, err := transport.DialProvider(paddr)
	if err != nil {
		return err
	}
	defer admin.Close()
	for id := 0; id < sh.HSMs; id++ {
		hd, reg, err := transport.ProvisionHSM(oracleAddr, id, "")
		if err != nil {
			return fmt.Errorf("provisioning HSM %d: %w", id, err)
		}
		haddr, err := f.serve("HSM", hd.Service(), hd.WireRegistry())
		if err != nil {
			return err
		}
		if f.tr != nil {
			if haddr, err = f.relays.hsm.front(haddr); err != nil {
				return err
			}
		}
		reg.Addr = haddr
		if err := admin.RegisterHSM(ctx, reg); err != nil {
			return err
		}
		if f.tr != nil {
			// Re-register a decorated handle over the daemon's own, as the
			// in-process fleet does over d.HSMs[i].
			rh, err := transport.NewRemoteHSM(id, haddr)
			if err != nil {
				return err
			}
			f.prov.Register(&tracedHSM{HSMHandle: rh, tr: f.tr})
		}
	}
	if err := admin.InstallRosters(ctx); err != nil {
		return err
	}
	if f.keys, err = admin.Fleet(ctx); err != nil {
		return err
	}
	for i := 0; i < sh.Conns; i++ {
		rp, err := transport.DialProvider(clientAddr)
		if err != nil {
			return err
		}
		f.stop = append(f.stop, func() { rp.Close() })
		f.apis = append(f.apis, f.decorate(rp))
	}
	return nil
}

func (f *fleet) serve(name string, legacy any, wire *transport.Registry) (string, error) {
	ln, addr, err := transport.Serve(name, legacy, wire, "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.stop = append(f.stop, func() { ln.Close() })
	return addr, nil
}

func (f *fleet) decorate(p client.Provider) client.Provider {
	if f.tr == nil {
		return p
	}
	return &tracedProvider{inner: p, tr: f.tr, wire: f.wireBytes}
}

// close stops what buildFleet started, newest first, and removes the WAL.
func (f *fleet) close() {
	for i := len(f.stop) - 1; i >= 0; i-- {
		f.stop[i]()
	}
	f.stop = nil
}

func (f *fleet) api() client.Provider {
	return f.apis[int(f.next.Add(1))%len(f.apis)]
}

// insertAttempt reserves and logs one recovery attempt for a fresh user
// without any client crypto: the epoch workload's unit of log growth.
func (f *fleet) insertAttempt(ctx context.Context, user string, commitment []byte) error {
	api := f.api()
	attempt, err := api.ReserveAttempt(ctx, user)
	if err != nil {
		return err
	}
	return api.LogRecoveryAttempt(ctx, user, attempt, commitment)
}

func (f *fleet) runEpoch(ctx context.Context) error {
	ctx, sp := f.tr.begin(ctx, "provider.run_epoch")
	err := f.prov.RunEpoch(ctx)
	sp.end(err)
	return err
}

// checkDigests is the epoch workload's correctness check: every HSM that
// answers must have adopted the provider's committed digest.
func (f *fleet) checkDigests() error {
	want := f.prov.LogDigest()
	for _, i := range f.live {
		got, err := f.dep.HSMs[i].LogDigest()
		if err != nil {
			return fmt.Errorf("HSM %d: %w", i, err)
		}
		if got != want {
			return fmt.Errorf("HSM %d digest %x, provider %x", i, got[:4], want[:4])
		}
	}
	return nil
}

// readProbe is the mixed workload's read op: the monitoring traffic a
// deployment sees between recoveries.
func (f *fleet) readProbe(ctx context.Context, user string) error {
	api := f.api()
	if _, err := api.FetchCiphertext(ctx, user); err != nil {
		return err
	}
	_, err := api.AttemptCount(ctx, user)
	return err
}

// readAttemptCount is the smallest request the wire carries: the idle
// round-trip probe.
func (f *fleet) readAttemptCount(ctx context.Context, user string) error {
	_, err := f.apis[0].AttemptCount(ctx, user)
	return err
}

func (f *fleet) durableBytes() int64 {
	if f.wal == nil {
		return 0
	}
	return f.wal.DurableOffset()
}

// meterCounts sums the HSM operation meters (traced in-process runs only).
func (f *fleet) meterCounts() map[string]int64 {
	out := make(map[string]int64)
	if f.dep == nil || f.tr == nil {
		return out
	}
	for i := range f.dep.HSMs {
		for op, n := range f.dep.Meter(i).Snapshot() {
			out[string(op)] += n
		}
	}
	return out
}

// user is one enrolled client device.
type user struct {
	c   *client.Client
	api client.Provider
}

func (f *fleet) newUser(name, pin string) (*user, error) {
	api := f.api()
	c, err := client.New(name, pin, f.params, f.keys, api)
	if err != nil {
		return nil, err
	}
	return &user{c: c, api: api}, nil
}

func (u *user) name() string { return u.c.User() }

func (u *user) backup(ctx context.Context, msg []byte) error { return u.c.Backup(ctx, msg) }

// checkStored reads the user's ciphertext back and checks it is the one
// this device wrote: it parses, carries the device's salt and has a share
// for every cluster member.
func (u *user) checkStored(ctx context.Context, clusterSize int) error {
	blob, err := u.api.FetchCiphertext(ctx, u.name())
	if err != nil {
		return err
	}
	ct, err := lhe.CiphertextFromBytes(blob)
	if err != nil {
		return err
	}
	if !bytes.Equal(ct.Salt, u.c.Salt()) || len(ct.Shares) != clusterSize {
		return fmt.Errorf("stored ciphertext for %s is not the one written", u.name())
	}
	return nil
}

// session is a recovery between Begin and Finish.
type session struct{ s *client.Session }

func (u *user) begin(ctx context.Context) (session, error) {
	s, err := u.c.Begin(ctx, "")
	return session{s}, err
}

// collect contacts the whole cluster and returns how many members failed.
func (s session) collect(ctx context.Context) int { return len(s.s.RequestAllShares(ctx)) }

func (s session) finish(ctx context.Context) ([]byte, error) { return s.s.Finish(ctx) }

// --- decorators ---

// tracedProvider records one span per call across the client.Provider
// boundary. Over TCP that is wire plus provider.
type tracedProvider struct {
	inner client.Provider
	tr    *tracer
	wire  func() int64 // bytes relayed so far, all links (0 in-process)
}

func (p *tracedProvider) StoreCiphertext(ctx context.Context, user string, ct []byte) error {
	ctx, sp := p.tr.begin(ctx, "provider.store_ciphertext")
	err := p.inner.StoreCiphertext(ctx, user, ct)
	sp.end(err)
	return err
}

func (p *tracedProvider) FetchCiphertext(ctx context.Context, user string) ([]byte, error) {
	ctx, sp := p.tr.begin(ctx, "provider.fetch_ciphertext")
	out, err := p.inner.FetchCiphertext(ctx, user)
	sp.end(err)
	return out, err
}

func (p *tracedProvider) AttemptCount(ctx context.Context, user string) (int, error) {
	ctx, sp := p.tr.begin(ctx, "provider.attempt_count")
	n, err := p.inner.AttemptCount(ctx, user)
	sp.end(err)
	return n, err
}

func (p *tracedProvider) ReserveAttempt(ctx context.Context, user string) (int, error) {
	ctx, sp := p.tr.begin(ctx, "provider.reserve_attempt")
	n, err := p.inner.ReserveAttempt(ctx, user)
	sp.end(err)
	return n, err
}

func (p *tracedProvider) LogRecoveryAttempt(ctx context.Context, user string, attempt int, commitment []byte) error {
	ctx, sp := p.tr.begin(ctx, "provider.log_attempt")
	err := p.inner.LogRecoveryAttempt(ctx, user, attempt, commitment)
	sp.end(err)
	return err
}

func (p *tracedProvider) WaitForCommit(ctx context.Context) error {
	ctx, sp := p.tr.begin(ctx, "provider.wait_commit")
	before := p.wire()
	err := p.inner.WaitForCommit(ctx)
	sp.endWith(err, "", p.wire()-before)
	return err
}

func (p *tracedProvider) FetchInclusionProof(ctx context.Context, user string, attempt int, commitment []byte) (*logtree.Trace, error) {
	ctx, sp := p.tr.begin(ctx, "provider.inclusion_proof")
	out, err := p.inner.FetchInclusionProof(ctx, user, attempt, commitment)
	sp.end(err)
	return out, err
}

func (p *tracedProvider) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	ctx, sp := p.tr.begin(ctx, "provider.relay_recover")
	out, err := p.inner.RelayRecover(ctx, req)
	sp.endWith(err, recoverKey(req), 0)
	return out, err
}

func (p *tracedProvider) FetchEscrowedReplies(ctx context.Context, user string) ([]*protocol.RecoveryReply, error) {
	ctx, sp := p.tr.begin(ctx, "provider.fetch_escrow")
	out, err := p.inner.FetchEscrowedReplies(ctx, user)
	sp.end(err)
	return out, err
}

func (p *tracedProvider) ClearEscrow(ctx context.Context, user string) error {
	ctx, sp := p.tr.begin(ctx, "provider.clear_escrow")
	err := p.inner.ClearEscrow(ctx, user)
	sp.end(err)
	return err
}

// recoverKey links an HSM-side recovery span to the client-side relay span
// when the context stops at a socket.
func recoverKey(req *protocol.RecoveryRequest) string {
	return fmt.Sprintf("%s/%d/%d", req.User, req.Attempt, req.SharePos)
}

// tracedHSM records one span per exchange across provider.HSMHandle.
type tracedHSM struct {
	provider.HSMHandle
	tr *tracer
}

func (h *tracedHSM) LogChooseChunks(ctx context.Context, hdr dlog.EpochHeader) ([]int, error) {
	ctx, sp := h.tr.begin(ctx, "hsm.choose_chunks")
	out, err := h.HSMHandle.LogChooseChunks(ctx, hdr)
	sp.end(err)
	return out, err
}

func (h *tracedHSM) LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	ctx, sp := h.tr.begin(ctx, "hsm.handle_audit")
	out, err := h.HSMHandle.LogHandleAudit(ctx, pkg)
	sp.end(err)
	return out, err
}

func (h *tracedHSM) LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error {
	ctx, sp := h.tr.begin(ctx, "hsm.handle_commit")
	err := h.HSMHandle.LogHandleCommit(ctx, cm)
	sp.end(err)
	return err
}

func (h *tracedHSM) HandleRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	ctx, sp := h.tr.begin(ctx, "hsm.handle_recover")
	out, err := h.HSMHandle.HandleRecover(ctx, req)
	sp.endWith(err, recoverKey(req), 0)
	return out, err
}

// errHSMDown is a plain error: not transient, so the epoch fan-out skips
// the HSM at once instead of retrying it with backoff.
var errHSMDown = errors.New("bench: HSM is down")

// deadHSM is a fleet member that fails every exchange (f_live of the
// roster, the paper's tolerance), so each epoch commits on a partial
// quorum through the roster cache's subtraction path.
type deadHSM int

func (d deadHSM) ID() int { return int(d) }
func (d deadHSM) LogChooseChunks(context.Context, dlog.EpochHeader) ([]int, error) {
	return nil, errHSMDown
}
func (d deadHSM) LogHandleAudit(context.Context, *dlog.AuditPackage) ([]byte, error) {
	return nil, errHSMDown
}
func (d deadHSM) LogHandleCommit(context.Context, *dlog.CommitMessage) error { return errHSMDown }
func (d deadHSM) HandleRecover(context.Context, *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	return nil, errHSMDown
}

// tracedEngine records appends (with their encoded size) and syncs. The
// journal's record kind names the span, so epoch commits and log inserts
// can be counted where they are written.
type tracedEngine struct {
	storage.Engine
	tr *tracer
}

func (e *tracedEngine) Append(rec storage.Record) (uint64, error) {
	name := "storage.append"
	switch rec.(type) {
	case *storage.EpochCommitRecord:
		name = "storage.append_epoch_commit"
	case *storage.LogInsertRecord:
		name = "storage.append_log_insert"
	}
	_, sp := e.tr.begin(context.Background(), name)
	seq, err := e.Engine.Append(rec)
	var size int64
	if sp.recording() {
		size = int64(len(storage.EncodeRecord(rec)))
	}
	sp.endWith(err, "", size)
	return seq, err
}

func (e *tracedEngine) Sync() error {
	_, sp := e.tr.begin(context.Background(), "storage.sync")
	err := e.Engine.Sync()
	sp.end(err)
	return err
}

// --- byte-counting relays ---

// relayGroup fronts any number of listeners with loopback forwarders that
// share one byte counter: one group per link (client↔provider,
// HSM→provider oracle, provider→HSM).
type relayGroup struct {
	bytes atomic.Int64
	lns   []net.Listener
}

func (g *relayGroup) front(target string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	g.lns = append(g.lns, ln)
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			go g.pipe(in, out)
			go g.pipe(out, in)
		}
	}()
	return ln.Addr().String(), nil
}

// pipe copies one direction until either side closes, then closes both so
// the opposite pipe ends too.
func (g *relayGroup) pipe(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			g.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

func (g *relayGroup) close() {
	for _, ln := range g.lns {
		ln.Close()
	}
}

// wireBytes is the total over the three links (zero when not traced).
func (f *fleet) wireBytes() int64 {
	if f.relays.client == nil {
		return 0
	}
	return f.relays.client.bytes.Load() + f.relays.oracle.bytes.Load() + f.relays.hsm.bytes.Load()
}

// --- leaf probes ---

// probe times one public function of a leaf package on inputs shaped like
// the workload it is listed under. build prepares inputs (untimed) and
// returns the call to time; calls that consume their input (a puncture, a
// delete) index fresh input by the iteration number.
type probe struct {
	name, unit string
	workload   string
	build      func(n int, scratch string) (call func(i int) error, cleanup func(), err error)
}

func noCleanup() {}

// probeFleetSigs builds a BLS roster of n keys and everyone's signature
// over one epoch header.
func probeFleetSigs(n int) (aggsig.Scheme, []aggsig.Signer, []aggsig.PublicKey, []byte, [][]byte, error) {
	scheme := aggsig.BLS()
	signers, err := aggsig.KeyGenBatch(scheme, rand.Reader, n)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	msg := dlog.EpochHeader{Epoch: 7, NumChunks: n, NumEntry: 64}.SigningBytes()
	pks := make([]aggsig.PublicKey, n)
	sigs := make([][]byte, n)
	for i, s := range signers {
		pks[i] = s.PublicKey()
		if sigs[i], err = s.Sign(msg); err != nil {
			return nil, nil, nil, nil, nil, err
		}
	}
	return scheme, signers, pks, msg, sigs, nil
}

func probeEntries(prefix string, n int) []logtree.Entry {
	out := make([]logtree.Entry, n)
	for i := range out {
		out[i] = logtree.Entry{ID: []byte(fmt.Sprintf("%s-%06d", prefix, i)), Val: bytes.Repeat([]byte{byte(i)}, 32)}
	}
	return out
}

// probeTree is a log tree the size an epoch_fleet run reaches mid-way.
func probeTree() (*logtree.Tree, error) {
	t := logtree.New()
	for _, e := range probeEntries("committed", 1024) {
		if err := t.Insert(e.ID, e.Val); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// probeLHE encrypts one backup to a fleet of sh's size and decrypts a
// threshold of its shares, for the client-side reconstruct probes.
func probeLHE(sh shape) (lhe.Params, *bfe.Fleet, *lhe.Ciphertext, []lhe.DecryptedShare, error) {
	params, err := lhe.NewParams(sh.HSMs, sh.Cluster, sh.Threshold)
	if err != nil {
		return params, nil, nil, nil, err
	}
	small := bfe.Params{M: 64, K: sh.BFEK} // encrypt and decrypt cost K pieces whatever M is
	sks := make([]*bfe.PrivateKey, sh.HSMs)
	pks := make([]*bfe.PublicKey, sh.HSMs)
	for i := range sks {
		if sks[i], pks[i], err = bfe.KeyGenBatch(small, securestore.NewMemOracle(), rand.Reader, nil); err != nil {
			return params, nil, nil, nil, err
		}
	}
	keys := bfe.NewFleet(pks)
	ct, err := params.Encrypt(keys, "probe-user", "1234", bytes.Repeat([]byte{7}, 32), rand.Reader)
	if err != nil {
		return params, nil, nil, nil, err
	}
	cluster, err := params.Select(ct.Salt, "1234")
	if err != nil {
		return params, nil, nil, nil, err
	}
	shares := make([]lhe.DecryptedShare, sh.Threshold)
	for j := range shares {
		if shares[j], err = lhe.DecryptShare(sks[cluster[j]], "probe-user", ct.Salt, j, cluster[j], ct.Shares[j]); err != nil {
			return params, nil, nil, nil, err
		}
	}
	return params, keys, ct, shares, nil
}

// leafProbes lists the probes; the shapes are the production shapes of the
// workload each is listed under, and the sizes appear in the names.
func leafProbes() []probe {
	rb, ef, bw := shapes["recover_batched"], shapes["epoch_fleet"], shapes["backup_wal"]
	live := ef.HSMs - ef.DeadHSMs
	sized := func(format string, a ...any) string { return fmt.Sprintf(format, a...) }
	return []probe{
		// epoch_fleet: the pairing stack, signatures, the log.
		{"bls.pairing_us", "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			p, q := bls.HashToG1(bls.HashRFC9380, "bench", []byte("m")), bls.G2Generator()
			return func(int) error { _, err := bls.PairGT(p, q); return err }, noCleanup, nil
		}},
		{"bls.pairing_check2_us", "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			ps := []bls.G1{bls.HashToG1(bls.HashRFC9380, "bench", []byte("a")), bls.HashToG1(bls.HashRFC9380, "bench", []byte("b"))}
			qs := []bls.G2{bls.G2Generator(), bls.G2Generator()}
			return func(int) error { _, err := bls.PairingCheck(ps, qs); return err }, noCleanup, nil
		}},
		{"bls.g2_from_bytes_us", "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			_, pk, err := bls.GenerateKey(rand.Reader)
			if err != nil {
				return nil, nil, err
			}
			b := pk.Bytes()
			return func(int) error { _, err := bls.G2FromBytes(b); return err }, noCleanup, nil
		}},
		{"aggsig.sign_us", "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			_, signers, _, msg, _, err := probeFleetSigs(1)
			if err != nil {
				return nil, nil, err
			}
			return func(int) error { _, err := signers[0].Sign(msg); return err }, noCleanup, nil
		}},
		{sized("aggsig.verify_agg_ms_n%d", live), "ms", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			scheme, _, pks, msg, sigs, err := probeFleetSigs(live)
			if err != nil {
				return nil, nil, err
			}
			agg, err := scheme.Aggregate(sigs)
			if err != nil {
				return nil, nil, err
			}
			return func(int) error {
				ok, err := scheme.VerifyAggregate(pks, msg, agg)
				if err == nil && !ok {
					err = errors.New("aggregate did not verify")
				}
				return err
			}, noCleanup, nil
		}},
		{sized("aggsig.quorum_key_us_n%d_miss%d", ef.HSMs, ef.DeadHSMs), "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			scheme, _, pks, _, _, err := probeFleetSigs(ef.HSMs)
			if err != nil {
				return nil, nil, err
			}
			cache := aggsig.NewRosterCache(scheme)
			cache.SetRoster(pks)
			if _, _, err := cache.FullAggregate(); err != nil {
				return nil, nil, err
			}
			signers := make([]int, 0, live)
			for i := ef.DeadHSMs; i < ef.HSMs; i++ {
				signers = append(signers, i)
			}
			return func(int) error { _, err := cache.QuorumKey(signers); return err }, noCleanup, nil
		}},
		{sized("aggsig.aggregate_us_n%d", live), "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			scheme, _, _, _, sigs, err := probeFleetSigs(live)
			if err != nil {
				return nil, nil, err
			}
			return func(int) error { _, err := scheme.Aggregate(sigs); return err }, noCleanup, nil
		}},
		{sized("dlog.build_epoch_ms_b%d", ef.InsertsPerEpoch), "ms", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			p := dlog.NewProvider(dlog.Config{NumChunks: ef.HSMs, AuditsPerHSM: 2})
			for _, e := range probeEntries("pending", ef.InsertsPerEpoch) {
				if err := p.Append(e.ID, e.Val); err != nil {
					return nil, nil, err
				}
			}
			// BuildEpoch restages the same pending batch each call; Abort
			// after the last leaves nothing behind.
			return func(int) error { _, err := p.BuildEpoch(); return err }, p.Abort, nil
		}},
		{"dlog.audit_package_us", "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			p := dlog.NewProvider(dlog.Config{NumChunks: ef.HSMs, AuditsPerHSM: 2})
			for _, e := range probeEntries("pending", ef.InsertsPerEpoch) {
				if err := p.Append(e.ID, e.Val); err != nil {
					return nil, nil, err
				}
			}
			if _, err := p.BuildEpoch(); err != nil {
				return nil, nil, err
			}
			return func(i int) error {
				_, err := p.AuditPackageFor([]int{i % ef.HSMs, (i + ef.HSMs/2) % ef.HSMs})
				return err
			}, p.Abort, nil
		}},
		{"logtree.insert_us", "us", "epoch_fleet", func(n int, _ string) (func(int) error, func(), error) {
			t, err := probeTree()
			if err != nil {
				return nil, nil, err
			}
			fresh := probeEntries("fresh", n)
			return func(i int) error { return t.Insert(fresh[i].ID, fresh[i].Val) }, noCleanup, nil
		}},
		{sized("logtree.prove_extends_ms_b%d", ef.InsertsPerEpoch), "ms", "epoch_fleet", func(n int, _ string) (func(int) error, func(), error) {
			t, err := probeTree()
			if err != nil {
				return nil, nil, err
			}
			batch := probeEntries("batch", ef.InsertsPerEpoch)
			clones := make([]*logtree.Tree, n)
			for i := range clones {
				clones[i] = t.Clone()
			}
			return func(i int) error { _, err := clones[i].ProveExtends(batch); return err }, noCleanup, nil
		}},
		{sized("logtree.verify_extends_ms_b%d", ef.InsertsPerEpoch), "ms", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			t, err := probeTree()
			if err != nil {
				return nil, nil, err
			}
			before := t.Digest()
			proof, err := t.ProveExtends(probeEntries("batch", ef.InsertsPerEpoch))
			if err != nil {
				return nil, nil, err
			}
			after := t.Digest()
			return func(int) error { return logtree.VerifyExtends(before, after, proof) }, noCleanup, nil
		}},
		{sized("merkle.build_ms_n%d", ef.HSMs), "ms", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			leaves := make([][]byte, ef.HSMs)
			for i := range leaves {
				leaves[i] = bytes.Repeat([]byte{byte(i)}, 2048) // about one encoded chunk record
			}
			return func(int) error { _, err := merkle.New(leaves); return err }, noCleanup, nil
		}},
		{"merkle.verify_us", "us", "epoch_fleet", func(int, string) (func(int) error, func(), error) {
			leaves := make([][]byte, ef.HSMs)
			for i := range leaves {
				leaves[i] = bytes.Repeat([]byte{byte(i)}, 2048)
			}
			t, err := merkle.New(leaves)
			if err != nil {
				return nil, nil, err
			}
			proof, err := t.Prove(ef.HSMs / 3)
			if err != nil {
				return nil, nil, err
			}
			root := t.Root()
			return func(int) error {
				if !merkle.Verify(root, ef.HSMs, leaves[ef.HSMs/3], proof) {
					return errors.New("merkle proof did not verify")
				}
				return nil
			}, noCleanup, nil
		}},

		// backup_wal: what a client pays to encrypt, and one durable append.
		{sized("lhe.encrypt_ms_n%d", bw.Cluster), "ms", "backup_wal", func(int, string) (func(int) error, func(), error) {
			params, keys, _, _, err := probeLHE(bw)
			if err != nil {
				return nil, nil, err
			}
			msg := bytes.Repeat([]byte{7}, 32)
			return func(int) error {
				_, err := params.Encrypt(keys, "probe-user", "1234", msg, rand.Reader)
				return err
			}, noCleanup, nil
		}},
		{"bfe.encrypt_us", "us", "backup_wal", func(int, string) (func(int) error, func(), error) {
			_, pk, err := bfe.KeyGenBatch(bfe.Params{M: bw.BFEM, K: bw.BFEK}, securestore.NewMemOracle(), rand.Reader, nil)
			if err != nil {
				return nil, nil, err
			}
			msg := bytes.Repeat([]byte{7}, 48)
			return func(int) error { _, err := pk.Encrypt(msg, []byte("ad"), rand.Reader); return err }, noCleanup, nil
		}},
		{sized("shamir.split_us_t%d_n%d", bw.Threshold, bw.Cluster), "us", "backup_wal", func(int, string) (func(int) error, func(), error) {
			secret := bytes.Repeat([]byte{9}, 16)
			return func(int) error {
				_, err := shamir.SplitBytes(secret, bw.Threshold, bw.Cluster, rand.Reader)
				return err
			}, noCleanup, nil
		}},
		{"storage.file_append_sync_us", "us", "backup_wal", func(_ int, scratch string) (func(int) error, func(), error) {
			dir, err := os.MkdirTemp(scratch, "probe-wal-")
			if err != nil {
				return nil, nil, err
			}
			eng, err := storage.OpenFile(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, nil, err
			}
			rec := &storage.CiphertextRecord{User: "probe-user", Blob: make([]byte, 17<<10)} // one n=40 ciphertext
			return func(i int) error {
					rec.Index = uint32(i)
					if _, err := eng.Append(rec); err != nil {
						return err
					}
					return eng.Sync()
				}, func() {
					eng.Close()
					os.RemoveAll(dir)
				}, nil
		}},

		// recover_batched: the HSM's share path and the client's reconstruct.
		{"bfe.decrypt_puncture_us", "us", "recover_batched", func(n int, _ string) (func(int) error, func(), error) {
			// Sized so n punctures stay inside the key's budget, as the
			// workload's fleet is.
			sk, pk, err := bfe.KeyGenBatch(bfe.Params{M: 2 * rb.BFEK * 2 * n, K: rb.BFEK}, securestore.NewMemOracle(), rand.Reader, nil)
			if err != nil {
				return nil, nil, err
			}
			cts := make([][]byte, n)
			for i := range cts {
				if cts[i], err = pk.Encrypt(bytes.Repeat([]byte{7}, 48), []byte("ad"), rand.Reader); err != nil {
					return nil, nil, err
				}
			}
			return func(i int) error { _, err := sk.DecryptAndPuncture(cts[i], []byte("ad")); return err }, noCleanup, nil
		}},
		{"securestore.read_us", "us", "recover_batched", func(int, string) (func(int) error, func(), error) {
			st, err := probeStore(rb.BFEM)
			if err != nil {
				return nil, nil, err
			}
			return func(i int) error { _, err := st.Read((i * 7919) % rb.BFEM); return err }, noCleanup, nil
		}},
		{"securestore.delete_us", "us", "recover_batched", func(int, string) (func(int) error, func(), error) {
			st, err := probeStore(rb.BFEM)
			if err != nil {
				return nil, nil, err
			}
			return func(i int) error { return st.Delete(i) }, noCleanup, nil
		}},
		{sized("lhe.reconstruct_ms_t%d", rb.Threshold), "ms", "recover_batched", func(int, string) (func(int) error, func(), error) {
			params, _, ct, shares, err := probeLHE(rb)
			if err != nil {
				return nil, nil, err
			}
			return func(int) error { _, err := params.Reconstruct("probe-user", ct, shares); return err }, noCleanup, nil
		}},
		{sized("shamir.reconstruct_us_t%d", rb.Threshold), "us", "recover_batched", func(int, string) (func(int) error, func(), error) {
			shares, err := shamir.SplitBytes(bytes.Repeat([]byte{9}, 16), rb.Threshold, rb.Cluster, rand.Reader)
			if err != nil {
				return nil, nil, err
			}
			return func(int) error { _, err := shamir.ReconstructBytes(shares[:rb.Threshold], rb.Threshold); return err }, noCleanup, nil
		}},
	}
}

// probeStore is a secure-deletion store holding one BFE secret array.
func probeStore(blocks int) (*securestore.Store, error) {
	data := make([][]byte, blocks)
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	return securestore.Setup(securestore.NewMemOracle(), data, rand.Reader, (*meter.Meter)(nil))
}
