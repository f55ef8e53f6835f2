package lhe

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"testing"
	"testing/quick"

	"safetypin/internal/bfe"
	"safetypin/internal/ecgroup"
	"safetypin/internal/prg"
	"safetypin/internal/securestore"
)

// fleet builds N ElGamal keypairs plus the client-side fleet view.
func fleet(t testing.TB, n int) ([]ecgroup.KeyPair, *ElGamalFleet) {
	t.Helper()
	kps := make([]ecgroup.KeyPair, n)
	pks := make([]ecgroup.Point, n)
	for i := range kps {
		kp, err := ecgroup.GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		kps[i] = kp
		pks[i] = kp.PK
	}
	return kps, NewElGamalFleet(pks)
}

// recoverAll plays the honest protocol: select the cluster from the PIN,
// decrypt every share at its HSM, reconstruct.
func recoverAll(t testing.TB, p Params, kps []ecgroup.KeyPair, user, pin string, ct *Ciphertext) ([]byte, error) {
	t.Helper()
	cluster, err := p.Select(ct.Salt, pin)
	if err != nil {
		return nil, err
	}
	var shares []DecryptedShare
	for j, hsmIdx := range cluster {
		dec := NewElGamalDecrypter(kps[hsmIdx])
		ds, err := DecryptShare(dec, user, ct.Salt, j, hsmIdx, ct.Shares[j])
		if err != nil {
			continue // wrong PIN selects wrong HSMs; their decrypts fail
		}
		shares = append(shares, ds)
	}
	return p.Reconstruct(user, ct, shares)
}

func mustParams(t testing.TB, total, cluster, threshold int) Params {
	t.Helper()
	p, err := NewParams(total, cluster, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBackupRecoverRoundTrip(t *testing.T) {
	p := mustParams(t, 24, 8, 4)
	kps, enc := fleet(t, 24)
	msg := []byte("disk image bytes")
	ct, err := p.Encrypt(enc, "alice", "123456", msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recoverAll(t, p, kps, "alice", "123456", ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round-trip mismatch")
	}
}

func TestWrongPINFails(t *testing.T) {
	p := mustParams(t, 24, 8, 4)
	kps, enc := fleet(t, 24)
	ct, err := p.Encrypt(enc, "alice", "123456", []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recoverAll(t, p, kps, "alice", "654321", ct); err == nil {
		t.Fatal("recovery with wrong PIN succeeded")
	}
}

func TestWrongUserFails(t *testing.T) {
	// Mallory colluding with the provider replays Alice's ciphertext under
	// her own username: every share must refuse to decrypt.
	p := mustParams(t, 24, 8, 4)
	kps, enc := fleet(t, 24)
	ct, err := p.Encrypt(enc, "alice", "123456", []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _ := p.Select(ct.Salt, "123456")
	for j, hsmIdx := range cluster {
		dec := NewElGamalDecrypter(kps[hsmIdx])
		if _, err := DecryptShare(dec, "mallory", ct.Salt, j, hsmIdx, ct.Shares[j]); err == nil {
			t.Fatal("share decrypted under wrong username")
		}
	}
}

func TestThresholdRecovery(t *testing.T) {
	// Only t of n shares are needed: drop the rest (fault tolerance).
	p := mustParams(t, 32, 10, 5)
	kps, enc := fleet(t, 32)
	msg := []byte("survives failures")
	ct, err := p.Encrypt(enc, "bob", "111111", msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _ := p.Select(ct.Salt, "111111")
	var shares []DecryptedShare
	for j := 3; j < 8; j++ { // arbitrary 5 of the 10
		hsmIdx := cluster[j]
		ds, err := DecryptShare(NewElGamalDecrypter(kps[hsmIdx]), "bob", ct.Salt, j, hsmIdx, ct.Shares[j])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, ds)
	}
	got, err := p.Reconstruct("bob", ct, shares)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("threshold recovery failed")
	}
}

func TestBelowThresholdFails(t *testing.T) {
	p := mustParams(t, 32, 10, 5)
	kps, enc := fleet(t, 32)
	ct, err := p.Encrypt(enc, "bob", "111111", []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _ := p.Select(ct.Salt, "111111")
	var shares []DecryptedShare
	for j := 0; j < 4; j++ { // t-1 shares
		hsmIdx := cluster[j]
		ds, err := DecryptShare(NewElGamalDecrypter(kps[hsmIdx]), "bob", ct.Salt, j, hsmIdx, ct.Shares[j])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, ds)
	}
	if _, err := p.Reconstruct("bob", ct, shares); err == nil {
		t.Fatal("reconstruction below threshold succeeded")
	}
}

func TestSelectDeterministicAndPinSensitive(t *testing.T) {
	p := mustParams(t, 1000, 40, 20)
	salt := make([]byte, SaltSize)
	a, err := p.Select(salt, "123456")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Select(salt, "123456")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Select not deterministic")
		}
	}
	c, err := p.Select(salt, "123457")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("adjacent PINs produced the same cluster")
	}
}

func TestSelectSaltSensitive(t *testing.T) {
	p := mustParams(t, 1000, 40, 20)
	s1 := bytes.Repeat([]byte{1}, SaltSize)
	s2 := bytes.Repeat([]byte{2}, SaltSize)
	a, _ := p.Select(s1, "123456")
	b, _ := p.Select(s2, "123456")
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different salts produced the same cluster")
	}
}

// bfeFleet builds N puncturable keypairs plus the client-side fleet view.
func bfeFleet(t testing.TB, n int, p bfe.Params) ([]*bfe.PrivateKey, *bfe.Fleet) {
	t.Helper()
	sks, pks := make([]*bfe.PrivateKey, n), make([]*bfe.PublicKey, n)
	for i := range sks {
		var err error
		if sks[i], pks[i], err = bfe.KeyGenBatch(p, securestore.NewMemOracle(), rand.Reader, nil); err != nil {
			t.Fatal(err)
		}
	}
	return sks, bfe.NewFleet(pks)
}

// TestCiphertextHidesCluster is location hiding from the outside: an
// attacker with the username, the stored ciphertext, N and every public key
// — but no PIN and no HSM — must find nothing in the ciphertext that tells
// which HSM a share went to. If he could, N·n guesses would give him the
// cluster and a dictionary of Select calls the PIN, with no guess limit.
func TestCiphertextHidesCluster(t *testing.T) {
	const N, user = 16, "alice"
	p := mustParams(t, N, 6, 3)
	kps, elFleet := fleet(t, N)
	var elKeys [][]byte
	for _, kp := range kps {
		elKeys = append(elKeys, kp.PK.Bytes())
	}
	bp := bfe.Params{M: 32, K: 4}
	_, bfFleet := bfeFleet(t, N, bp)
	var bfKeys [][]byte
	for i := 0; i < N; i++ {
		for _, pt := range bfFleet.Key(i).Points {
			bfKeys = append(bfKeys, pt.Bytes())
		}
	}
	// Every domain-separation label of the share path, current and retired:
	// all public constants.
	labels := []string{
		"", selectLabel, "safetypin/lhe/share/v1|", "safetypin/lhe/share/v2|", "safetypin/lhe/msg/v1|",
		"safetypin/bfe/tag/v1", "safetypin/bfe/tag/v2", "safetypin/bfe/piece/v1", "safetypin/bfe/piece/v2",
		"safetypin/bfe/positions/v1", "safetypin/elgamal/kdf/v1", "safetypin/elgamal/kdf/v2",
	}
	for name, c := range map[string]struct {
		enc  Encryptor
		keys [][]byte
	}{"elgamal": {elFleet, elKeys}, "bfe": {bfFleet, bfKeys}} {
		t.Run(name, func(t *testing.T) {
			salt := bytes.Repeat([]byte{5}, SaltSize)
			encrypt := func(pin string) *Ciphertext {
				// The same coins for every PIN: whatever differs between two
				// ciphertexts then differs because the cluster does.
				ct, err := p.EncryptWithSalt(c.enc, user, pin, salt, []byte("m"), prg.New("test/hides-cluster", nil))
				if err != nil {
					t.Fatal(err)
				}
				return ct
			}
			ct := encrypt("123456")
			raw := ct.Bytes()
			// No recipient key in the clear.
			for i, key := range c.keys {
				if bytes.Contains(raw, key) {
					t.Fatalf("ciphertext leaks public key #%d of the fleet", i)
				}
			}
			// No hash of a recipient's name in the clear: every label over
			// every (position, HSM) candidate.
			for _, label := range labels {
				for j := 0; j < p.ClusterSize(); j++ {
					for i := 0; i < N; i++ {
						h := sha256.Sum256(append([]byte(label), shareAD(user, salt, j, i)...))
						if bytes.Contains(raw, h[:]) {
							t.Fatalf("ciphertext carries SHA-256(%q ‖ shareAD(position %d, HSM %d)) in the clear", label, j, i)
						}
					}
				}
			}
			// And nothing else that moves with the cluster, short of the
			// sealed boxes: under another PIN and the same coins, each share
			// differs only past its cleartext header, and only there.
			header := ecgroup.PointSize // R
			if name == "bfe" {
				header += bfe.TagSize // tag ‖ R
			}
			other := encrypt("654321")
			cl, _ := p.Select(salt, "123456")
			clOther, _ := p.Select(salt, "654321")
			moved := 0
			for j := range ct.Shares {
				if !bytes.Equal(ct.Shares[j][:header], other.Shares[j][:header]) {
					t.Fatalf("share %d: the %d cleartext bytes depend on the recipient (HSM %d vs %d)", j, header, cl[j], clOther[j])
				}
				if cl[j] != clOther[j] {
					moved++
					if bytes.Equal(ct.Shares[j], other.Shares[j]) {
						t.Fatalf("share %d is the same for HSM %d and HSM %d", j, cl[j], clOther[j])
					}
				}
			}
			if moved == 0 {
				t.Fatal("the two test PINs select the same cluster")
			}
		})
	}
}

// TestShareBoundToRecipientName: two HSMs holding the very same key are
// still two recipients. The share's KDF input names the HSM it was sealed
// for, so the twin — same scalars, other index — cannot open it.
func TestShareBoundToRecipientName(t *testing.T) {
	const N = 8
	p := mustParams(t, N, 4, 2)
	sk, pk, err := bfe.KeyGenBatch(bfe.Params{M: 32, K: 4}, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	pks := make([]*bfe.PublicKey, N)
	for i := range pks {
		pks[i] = pk
	}
	ct, err := p.Encrypt(bfe.NewFleet(pks), "alice", "123456", []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _ := p.Select(ct.Salt, "123456")
	for j, hsmIdx := range cluster {
		twin := (hsmIdx + 1) % N
		if _, err := DecryptShare(sk, "alice", ct.Salt, j, twin, ct.Shares[j]); err == nil {
			t.Fatalf("share %d sealed for HSM %d opened as HSM %d", j, hsmIdx, twin)
		}
		if _, err := DecryptShare(sk, "alice", ct.Salt, (j+1)%len(cluster), hsmIdx, ct.Shares[j]); err == nil {
			t.Fatalf("share %d opened at another share position", j)
		}
		if _, err := DecryptShare(sk, "alice", ct.Salt, j, hsmIdx, ct.Shares[j]); err != nil {
			t.Fatalf("share %d at its own HSM: %v", j, err)
		}
	}
}

// TestDecryptAndPunctureShare: the HSM's form opens, checks the username and
// punctures as one operation — and a wrong username burns nothing.
func TestDecryptAndPunctureShare(t *testing.T) {
	const N = 8
	p := mustParams(t, N, 4, 2)
	sks, enc := bfeFleet(t, N, bfe.Params{M: 32, K: 4})
	ct, err := p.Encrypt(enc, "alice", "123456", []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _ := p.Select(ct.Salt, "123456")
	sk := sks[cluster[0]]
	if _, err := DecryptAndPunctureShare(sk, "mallory", ct.Salt, 0, cluster[0], ct.Shares[0]); err == nil {
		t.Fatal("alice's share served to mallory")
	}
	// A punctured share no longer decrypts.
	want, err := DecryptShare(sk, "alice", ct.Salt, 0, cluster[0], ct.Shares[0])
	if err != nil {
		t.Fatalf("mallory's request punctured alice's share: %v", err)
	}
	got, err := DecryptAndPunctureShare(sk, "alice", ct.Salt, 0, cluster[0], ct.Shares[0])
	if err != nil || got.Pos != 0 || !bytes.Equal(got.Share.Bytes(), want.Share.Bytes()) {
		t.Fatalf("DecryptAndPunctureShare = %+v, %v", got, err)
	}
	if _, err := DecryptShare(sk, "alice", ct.Salt, 0, cluster[0], ct.Shares[0]); !errors.Is(err, bfe.ErrPunctured) {
		t.Fatalf("share still opens after its puncture: %v", err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	p := mustParams(t, 24, 8, 4)
	kps, enc := fleet(t, 24)
	msg := []byte("serialize me")
	ct, err := p.Encrypt(enc, "alice", "123456", msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := CiphertextFromBytes(ct.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := recoverAll(t, p, kps, "alice", "123456", parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("serialized round-trip failed")
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	p := mustParams(t, 8, 4, 2)
	_, enc := fleet(t, 8)
	ct, err := p.Encrypt(enc, "a", "1", []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	raw := ct.Bytes()
	if _, err := CiphertextFromBytes(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated ciphertext parsed")
	}
	if _, err := CiphertextFromBytes(append(raw, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := CiphertextFromBytes(nil); err == nil {
		t.Fatal("empty buffer parsed")
	}
}

func TestCodecQuickNoPanics(t *testing.T) {
	// The parser must fail cleanly, never panic, on arbitrary input.
	err := quick.Check(func(raw []byte) bool {
		_, _ = CiphertextFromBytes(raw)
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	cases := []struct{ N, n, t int }{
		{0, 1, 1}, {10, 0, 0}, {10, 11, 5}, {10, 5, 0}, {10, 5, 6},
	}
	for _, c := range cases {
		if _, err := NewParams(c.N, c.n, c.t); err == nil {
			t.Fatalf("NewParams(%d,%d,%d) should fail", c.N, c.n, c.t)
		}
	}
}

func TestSaltReuseSameCluster(t *testing.T) {
	// §8: a client reuses its salt across backups so all its ciphertexts
	// live on the same cluster and one puncture revokes all of them.
	p := mustParams(t, 64, 8, 4)
	_, enc := fleet(t, 64)
	salt := bytes.Repeat([]byte{7}, SaltSize)
	ct1, err := p.EncryptWithSalt(enc, "alice", "123456", salt, []byte("m1"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := p.EncryptWithSalt(enc, "alice", "123456", salt, []byte("m2"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := p.Select(ct1.Salt, "123456")
	c2, _ := p.Select(ct2.Salt, "123456")
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("salt reuse produced different clusters")
		}
	}
}

func TestCiphertextSizeReported(t *testing.T) {
	// Sanity: at n=40 over ElGamal the ciphertext should be tens of KB at
	// most; the paper reports 16.5 KB for its encoding.
	p := mustParams(t, 100, 40, 20)
	_, enc := fleet(t, 100)
	ct, err := p.Encrypt(enc, "alice", "123456", []byte("msg"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sz := len(ct.Bytes())
	if sz < 40*64 || sz > 40*1024 {
		t.Fatalf("implausible ciphertext size %d", sz)
	}
}

func BenchmarkEncryptN40(b *testing.B) {
	p, _ := NewParams(100, 40, 20)
	_, enc := fleet(b, 100)
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encrypt(enc, "alice", "123456", msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverN40(b *testing.B) {
	p, _ := NewParams(100, 40, 20)
	kps, enc := fleet(b, 100)
	ct, err := p.Encrypt(enc, "alice", "123456", make([]byte, 64), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recoverAll(b, p, kps, "alice", "123456", ct); err != nil {
			b.Fatal(err)
		}
	}
}
