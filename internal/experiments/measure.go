package experiments

import (
	"crypto/rand"
	"fmt"
	"strings"
	"time"

	"safetypin/internal/aggsig"
	"safetypin/internal/baseline"
	"safetypin/internal/bfe"
	"safetypin/internal/dlog"
	"safetypin/internal/ecgroup"
	"safetypin/internal/elgamal"
	"safetypin/internal/meter"
	"safetypin/internal/securestore"
	"safetypin/internal/simtime"
)

// MeasureHostRates benchmarks this host's crypto primitives for Table 7.
func MeasureHostRates() *HostRates {
	kp, _ := ecgroup.GenerateKeyPair(rand.Reader)
	s, _ := ecgroup.RandomScalar(rand.Reader)
	elCT, _ := elgamal.Encrypt(kp.PK, make([]byte, 32), nil, rand.Reader)
	key := make([]byte, 16)
	msg32 := make([]byte, 32)
	return &HostRates{
		ECMulPerSec: timeRate(func() { ecgroup.BaseMul(s) }),
		ElGamalDecPerSec: timeRate(func() {
			if _, err := elgamal.Decrypt(kp.SK, elCT, nil); err != nil {
				panic(err)
			}
		}),
		PairingPerSec:   measurePairingRate(),
		G1MulPerSec:     measureG1MulRate(),
		RosterAggPerSec: measureRosterAggRate(),
		HMACPerSec:      timeRate(func() { _ = hmacOnce(msg32) }),
		AES32PerSec:     timeRate(func() { _ = aesOnce(key, msg32) }),
	}
}

// --- Figure 8: log-audit time vs data-center size ---

// Fig8Point is one measured point: with N HSMs sharing the audit, how long
// one HSM spends auditing an epoch of `inserts` insertions (λ = 128 chunks
// audited, 1/N of the insertions per chunk). Only the audit's symmetric
// and I/O work is priced: the epoch's one signature and one commit check
// cost the same at every fleet size and would bury the 1/N shape.
type Fig8Point struct {
	DataCenterSize int
	AuditSeconds   float64 // simulated SoloKey time, at the materialized depth
	AuditSecondsAt float64 // extrapolated to the paper's ~100M-entry log depth
}

// Fig8Config sizes the experiment.
type Fig8Config struct {
	BaseLogSize int   // pre-existing committed entries (paper: ~100M)
	Inserts     int   // new insertions this epoch (paper: 10K)
	Lambda      int   // chunks audited per HSM (paper: 128)
	Sizes       []int // data-center sizes to sweep
}

// DefaultFig8Config mirrors the paper at a materializable base-log size.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		BaseLogSize: 1 << 17,
		Inserts:     10000,
		Lambda:      128,
		Sizes:       []int{2500, 5000, 7500, 10000},
	}
}

// Fig8 measures per-HSM log-audit time as the fleet grows: each HSM audits
// λ chunks of I/N insertions each, so its work shrinks as 1/N — the
// scalability claim of §6.2.
func Fig8(cfg Fig8Config) ([]Fig8Point, error) {
	signer, err := aggsig.KeyGen(rand.Reader)
	if err != nil {
		return nil, err
	}
	roster := aggsig.NewRosterCache(nil)
	roster.SetRoster([]aggsig.PublicKey{signer.PublicKey()})

	var out []Fig8Point
	for _, n := range cfg.Sizes {
		numChunks := n
		if numChunks > cfg.Inserts {
			numChunks = cfg.Inserts
		}
		dcfg := dlog.Config{
			NumChunks:     numChunks,
			AuditsPerHSM:  cfg.Lambda,
			MinSignerFrac: 0.01,
		}
		p := dlog.NewProvider(dcfg)
		m := meter.New()
		auditor, err := dlog.NewAuditor(dcfg, 0, roster, signer, m)
		if err != nil {
			return nil, err
		}
		// Commit the base log in one cheap epoch (audit 1 chunk).
		baseCfg := dcfg
		baseCfg.AuditsPerHSM = 1
		baseProvider := p
		for i := 0; i < cfg.BaseLogSize; i++ {
			if err := baseProvider.Append([]byte(fmt.Sprintf("base-%d", i)), []byte("v")); err != nil {
				return nil, err
			}
		}
		baseAuditor, err := dlog.NewAuditor(baseCfg, 0, roster, signer, nil)
		if err != nil {
			return nil, err
		}
		if err := runOneEpoch(baseProvider, baseAuditor, roster); err != nil {
			return nil, err
		}
		// Sync the measured auditor to the committed digest by replaying
		// the same commit path (the base epoch is not what we measure).
		// Simplest: hand it the digest via a fresh auditor trick — instead
		// we run the measured epoch against a fresh auditor primed by
		// committing the base epoch through it too, unmetered.
		if err := primeAuditor(auditor, baseAuditor); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Inserts; i++ {
			if err := p.Append([]byte(fmt.Sprintf("epoch-%d", i)), []byte("v")); err != nil {
				return nil, err
			}
		}
		m.Reset()
		if err := runOneEpoch(p, auditor, roster); err != nil {
			return nil, err
		}
		b := simtime.Cost(m, simtime.SoloKey())
		audit := b.Symmetric + b.IO
		// Depth extrapolation: trace length grows with log2 of the log
		// size, and the audit's costs scale with it.
		scale := float64(log2ceil(100_000_000)) / float64(log2ceil(cfg.BaseLogSize))
		out = append(out, Fig8Point{
			DataCenterSize: n,
			AuditSeconds:   audit,
			AuditSecondsAt: audit * scale,
		})
	}
	return out, nil
}

func log2ceil(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}

// primeAuditor fast-forwards a to b's digest state by replaying a trivial
// commit: both auditors share the same key, so we simply copy the digest by
// running HandleCommit on an epoch both would accept. dlog keeps digests
// private, so we reuse GarbageCollect+manual path: instead, prime by
// construction — a is created fresh, so we replay the base epoch into it.
func primeAuditor(dst, src *dlog.Auditor) error {
	// Both auditors started at the empty digest; the base epoch was
	// committed through src only. Rather than replay (the staged epoch is
	// gone), we exploit that dlog exposes digests: dst must equal src.
	if dst.Digest() == src.Digest() {
		return nil
	}
	return dst.SyncDigestForTest(src.Digest())
}

// runOneEpoch drives build→choose→audit→commit for a single auditor,
// whose roster is roster.
func runOneEpoch(p *dlog.Provider, a *dlog.Auditor, roster *aggsig.RosterCache) error {
	hdr, err := p.BuildEpoch()
	if err != nil {
		return err
	}
	chunks, err := a.ChooseChunks(hdr)
	if err != nil {
		return err
	}
	pkg, err := p.AuditPackageFor(chunks)
	if err != nil {
		return err
	}
	sig, err := a.HandleAudit(pkg)
	if err != nil {
		return err
	}
	parsed, err := aggsig.ParseSignature(sig)
	if err != nil {
		return err
	}
	cm, err := p.Commit([]aggsig.Signature{parsed}, []int{0})
	if err != nil {
		return err
	}
	if cm.Witness, cm.Preimage, err = dlog.ProveCommit(roster, cm); err != nil {
		return err
	}
	return a.HandleCommit(cm)
}

// --- Figure 9: decrypt+puncture vs puncture budget ---

// Fig9Point is one measured decrypt-and-puncture cost at a given key size.
type Fig9Point struct {
	Punctures      int // recoveries before key rotation (x axis)
	SecretKeyBytes int
	Cost           simtime.Breakdown
}

// Fig9 measures a single HSM's decrypt+puncture cost as the puncturable key
// grows (Figure 9): I/O and symmetric work grow logarithmically with the
// key; public-key work is constant.
func Fig9(budgets []int) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, p := range budgets {
		params := bfe.ParamsForPunctures(p, 4)
		m := meter.New()
		oracle := securestore.NewMemOracle()
		sk, err := bfe.KeyGenSecretOnly(params, oracle, rand.Reader, m)
		if err != nil {
			return nil, err
		}
		// Build one ciphertext against lazily derived public keys.
		tag := make([]byte, bfe.TagSize)
		if _, err := rand.Read(tag); err != nil {
			return nil, err
		}
		pub := &bfe.PublicKey{Params: params}
		pub.Points = make([]ecgroup.Point, params.M)
		pos, err := bfe.PositionsForTag(params, tag)
		if err != nil {
			return nil, err
		}
		for _, i := range pos {
			pt, err := sk.PublicKeyAt(i)
			if err != nil {
				return nil, err
			}
			pub.Points[i] = pt
		}
		ct, err := pub.EncryptWithTag(tag, []byte("0123456789abcdef0123456789abcdef0123"), []byte("fig9"), rand.Reader)
		if err != nil {
			return nil, err
		}
		m.Reset()
		if _, err := sk.DecryptAndPuncture(ct, []byte("fig9")); err != nil {
			return nil, err
		}
		out = append(out, Fig9Point{
			Punctures:      p,
			SecretKeyBytes: params.SecretKeyBytes(),
			Cost:           simtime.Cost(m, simtime.SoloKey()),
		})
	}
	return out, nil
}

// RenderFig9 formats the series.
func RenderFig9(points []Fig9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: decrypt+puncture time vs punctures before rotation (SoloKey time)\n")
	fmt.Fprintf(&b, "%-12s %-10s %10s %10s %10s %10s\n",
		"punctures", "key size", "total", "io", "sym", "pub")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12d %-10s %10s %10s %10s %10s\n",
			p.Punctures, fmtBytes(p.SecretKeyBytes),
			fmtDur(p.Cost.Total()), fmtDur(p.Cost.IO), fmtDur(p.Cost.Symmetric), fmtDur(p.Cost.PublicKey))
	}
	return b.String()
}

// RenderFig8 formats the series.
func RenderFig8(points []Fig8Point, cfg Fig8Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: per-HSM log-audit time, %d insertions, λ=%d audited chunks\n",
		cfg.Inserts, cfg.Lambda)
	fmt.Fprintf(&b, "%-18s %22s %22s\n", "data center size", fmt.Sprintf("at %d entries", cfg.BaseLogSize), "extrapolated to 100M")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18d %22s %22s\n", p.DataCenterSize,
			fmtDur(p.AuditSeconds), fmtDur(p.AuditSecondsAt))
	}
	return b.String()
}

// --- baseline measurement for Figure 10 ---

// BaselineCosts measures the §9.2 baseline: save is one client-side
// encryption, recovery is one HSM ElGamal decryption plus a hash check.
type BaselineCosts struct {
	SaveWall    time.Duration
	RecoverCost simtime.Breakdown
}

// MeasureBaseline runs the baseline system once, metered.
func MeasureBaseline() (*BaselineCosts, error) {
	m := meter.New()
	c, err := baseline.NewCluster(baseline.ClusterSize, 10, rand.Reader, []*meter.Meter{m})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ct, err := baseline.Backup(c.PublicKey(), "alice", "123456", make([]byte, 16), rand.Reader)
	if err != nil {
		return nil, err
	}
	saveWall := time.Since(start)
	if _, err := c.Recover("alice", "123456", ct); err != nil {
		return nil, err
	}
	return &BaselineCosts{
		SaveWall:    saveWall,
		RecoverCost: simtime.Cost(m, simtime.SoloKey()),
	}, nil
}
