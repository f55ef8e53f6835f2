package bfe

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"testing"

	"safetypin/internal/ecgroup"
	"safetypin/internal/meter"
	"safetypin/internal/securestore"
)

var testParams = Params{M: 256, K: 8}

func keygen(t testing.TB) (*PrivateKey, *PublicKey) {
	t.Helper()
	sk, pk, err := KeyGen(testParams, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sk, pk
}

func TestRoundTrip(t *testing.T) {
	sk, pk := keygen(t)
	msg := []byte("key share")
	ad := []byte("user=alice")
	ct, err := pk.Encrypt(msg, ad, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round-trip mismatch")
	}
}

func TestPunctureKillsCiphertext(t *testing.T) {
	sk, pk := keygen(t)
	ct, err := pk.Encrypt([]byte("secret"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptAndPuncture(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "secret" {
		t.Fatal("decrypt-and-puncture returned wrong plaintext")
	}
	if _, err := sk.Decrypt(ct, nil); !errors.Is(err, ErrPunctured) {
		t.Fatalf("punctured ciphertext still decrypts: %v", err)
	}
}

func TestPunctureWithoutDecrypt(t *testing.T) {
	sk, pk := keygen(t)
	ct, err := pk.Encrypt([]byte("secret"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Puncture(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Decrypt(ct, nil); err == nil {
		t.Fatal("punctured ciphertext decrypted")
	}
}

func TestOtherCiphertextsSurvivePuncture(t *testing.T) {
	sk, pk := keygen(t)
	var cts [][]byte
	for i := 0; i < 10; i++ {
		ct, err := pk.Encrypt([]byte{byte(i)}, nil, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	if _, err := sk.DecryptAndPuncture(cts[0], nil); err != nil {
		t.Fatal(err)
	}
	// With M=256, K=8 and one puncture (8 deletions), other ciphertexts
	// overwhelmingly still decrypt (each would need all 8 of its positions
	// deleted).
	survived := 0
	for i := 1; i < 10; i++ {
		if got, err := sk.Decrypt(cts[i], nil); err == nil && got[0] == byte(i) {
			survived++
		}
	}
	if survived < 8 {
		t.Fatalf("only %d/9 unrelated ciphertexts survived one puncture", survived)
	}
}

// recordingOracle counts exchanges and remembers every version of every
// block it was handed; serve, when set, picks which version a read sees —
// the provider rolling the HSM's storage back.
type recordingOracle struct {
	*securestore.MemOracle
	gets, puts int
	history    map[uint64][][]byte
	serve      func(addr uint64, current []byte) []byte
	putErr     error
}

func newRecordingOracle() *recordingOracle {
	return &recordingOracle{MemOracle: securestore.NewMemOracle(), history: make(map[uint64][][]byte)}
}

func (o *recordingOracle) GetMany(addrs []uint64) ([][]byte, error) {
	o.gets++
	blocks, err := o.MemOracle.GetMany(addrs)
	if err == nil && o.serve != nil {
		for i, addr := range addrs {
			blocks[i] = o.serve(addr, blocks[i])
		}
	}
	return blocks, err
}

func (o *recordingOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	o.puts++
	if o.putErr != nil {
		return o.putErr
	}
	for i, addr := range addrs {
		o.history[addr] = append(o.history[addr], append([]byte(nil), blocks[i]...))
	}
	return o.MemOracle.PutMany(addrs, blocks)
}

func TestForwardSecrecyAfterPuncture(t *testing.T) {
	// The attacker captures the HSM root key and the full provider store
	// after puncture: the punctured ciphertext must stay dead. Decryption
	// via the captured state is exactly sk.Decrypt, which reads the same
	// store, so ErrPunctured here witnesses the property end-to-end. The
	// attacker also kept every block version the provider ever stored and
	// may serve any of them back — all at once or one node at a time: the
	// post-puncture root key opens none of it (securestore's state-capture
	// test runs the exhaustive search over versions).
	for name, puncture := range map[string]func(sk *PrivateKey, ct []byte) error{
		"DecryptAndPuncture": func(sk *PrivateKey, ct []byte) error { _, err := sk.DecryptAndPuncture(ct, nil); return err },
		"Puncture":           func(sk *PrivateKey, ct []byte) error { return sk.Puncture(ct) },
	} {
		t.Run(name, func(t *testing.T) {
			oracle := newRecordingOracle()
			sk, pk, err := KeyGen(testParams, oracle, rand.Reader, nil)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := pk.Encrypt([]byte("backup"), nil, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if err := puncture(sk, ct); err != nil {
				t.Fatal(err)
			}
			if sk.PuncturedCount() != testParams.K {
				t.Fatalf("punctured %d positions, want %d", sk.PuncturedCount(), testParams.K)
			}
			if _, err := sk.Decrypt(ct, nil); !errors.Is(err, ErrPunctured) {
				t.Fatal("forward secrecy violated")
			}
			rewritten := 0
			for addr, versions := range oracle.history {
				if len(versions) < 2 {
					continue
				}
				if len(versions) != 2 {
					t.Fatalf("node %d was sealed %d times by one puncture", addr, len(versions)-1)
				}
				rewritten++
				addr, old := addr, versions[0]
				oracle.serve = func(a uint64, current []byte) []byte {
					if a == addr {
						return old
					}
					return current
				}
				if _, err := sk.Decrypt(ct, nil); err == nil {
					t.Fatalf("rolling node %d back revived the punctured ciphertext", addr)
				}
			}
			if rewritten == 0 {
				t.Fatal("the puncture re-sealed nothing")
			}
			oracle.serve = func(a uint64, _ []byte) []byte { return oracle.history[a][0] }
			if _, err := sk.Decrypt(ct, nil); err == nil {
				t.Fatal("rolling the whole store back revived the punctured ciphertext")
			}
		})
	}
}

// TestExchangeCounts pins the oracle exchanges of the key operations: the
// K positions of a ciphertext travel together, and a decrypt that punctures
// reads them once.
func TestExchangeCounts(t *testing.T) {
	oracle := newRecordingOracle()
	sk, pk, err := KeyGen(Params{M: 256, K: 4}, oracle, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	encrypt := func() []byte {
		ct, err := pk.Encrypt([]byte("share"), nil, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	ct := encrypt()
	for _, c := range []struct {
		name       string
		op         func() error
		gets, puts int
	}{
		{"Decrypt", func() error { _, err := sk.Decrypt(ct, nil); return err }, 1, 0},
		{"Puncture", func() error { return sk.Puncture(ct) }, 1, 1},
		{"Puncture again", func() error { return sk.Puncture(ct) }, 1, 0},
		{"DecryptAndPuncture", func() error { _, err := sk.DecryptAndPuncture(encrypt(), nil); return err }, 1, 1},
		{"DecryptAndPunctureIf refused", func() error {
			refusal := errors.New("not yours")
			if _, err := sk.DecryptAndPunctureIf(encrypt(), nil, func([]byte) error { return refusal }); !errors.Is(err, refusal) {
				return fmt.Errorf("got %v, want the check's refusal", err)
			}
			return nil
		}, 1, 0},
	} {
		oracle.gets, oracle.puts = 0, 0
		if err := c.op(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if oracle.gets != c.gets || oracle.puts != c.puts {
			t.Errorf("%s: %d gets and %d puts, want %d and %d", c.name, oracle.gets, oracle.puts, c.gets, c.puts)
		}
	}
}

func TestWrongADFails(t *testing.T) {
	sk, pk := keygen(t)
	ct, err := pk.Encrypt([]byte("m"), []byte("ctx-a"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Decrypt(ct, []byte("ctx-b")); err == nil {
		t.Fatal("wrong ad decrypted")
	}
}

func TestWrongKeyFails(t *testing.T) {
	sk2, _, err := KeyGen(testParams, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, pk1 := keygen(t)
	ct, err := pk1.Encrypt([]byte("m"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk2.Decrypt(ct, nil); err == nil {
		t.Fatal("wrong key decrypted")
	}
}

// TestTamperedBoxKillsOnePiece: a damaged box must NOT kill the ciphertext —
// any other intact box still decrypts (this is BFE's redundancy, which the
// fault-tolerance analysis relies on) — and damage to all of them must.
func TestTamperedBoxKillsOnePiece(t *testing.T) {
	sk, pk := keygen(t)
	ct, err := pk.Encrypt([]byte("m"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	boxLen := (len(ct) - headerSize) / testParams.K
	mut := append([]byte{}, ct...)
	for j := 0; j < testParams.K; j++ {
		if _, err := sk.Decrypt(mut, nil); err != nil {
			t.Fatalf("%d tampered boxes of %d killed the whole ciphertext: %v", j, testParams.K, err)
		}
		mut[headerSize+j*boxLen] ^= 1
	}
	if _, err := sk.Decrypt(mut, nil); err == nil {
		t.Fatal("ciphertext with every box tampered accepted")
	}
}

// TestTamperedNonceKillsCiphertext: the K boxes share the header, so damage
// there — to the nonce point or to the tag, which rebinds the ciphertext to
// other positions and other box names — leaves nothing that opens.
func TestTamperedNonceKillsCiphertext(t *testing.T) {
	sk, pk := keygen(t)
	ct, err := pk.Encrypt([]byte("m"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	other, err := pk.Encrypt([]byte("m"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	swapped := append([]byte{}, ct...)
	copy(swapped[TagSize:headerSize], other[TagSize:headerSize]) // a valid point, not this ciphertext's
	flipped := append([]byte{}, ct...)
	flipped[TagSize] ^= 1 // the other square root: −R
	tagged := append([]byte{}, ct...)
	tagged[3] ^= 1
	for name, mut := range map[string][]byte{"another nonce": swapped, "negated nonce": flipped, "tampered tag": tagged} {
		if _, err := sk.Decrypt(mut, nil); err == nil {
			t.Fatalf("ciphertext with %s accepted", name)
		}
	}
}

func TestRotationCounter(t *testing.T) {
	p := Params{M: 64, K: 8}
	sk, pk, err := KeyGen(p, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sk.NeedsRotation() {
		t.Fatal("fresh key needs rotation")
	}
	if got := p.MaxPunctures(); got != 4 {
		t.Fatalf("MaxPunctures = %d, want 4", got)
	}
	// Punctures delete at most K fresh positions each (fewer on overlap),
	// so rotation must trigger after at least MaxPunctures punctures and
	// within a small multiple of it.
	punctures := 0
	for !sk.NeedsRotation() {
		if punctures > 8*p.MaxPunctures() {
			t.Fatalf("rotation never triggered after %d punctures (count=%d)",
				punctures, sk.PuncturedCount())
		}
		ct, err := pk.Encrypt([]byte("m"), nil, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sk.DecryptAndPuncture(ct, nil); err != nil && !errors.Is(err, ErrPunctured) {
			t.Fatal(err)
		}
		punctures++
	}
	if punctures < p.MaxPunctures() {
		t.Fatalf("rotation triggered after only %d punctures", punctures)
	}
	if sk.PuncturedCount() < p.M/2 {
		t.Fatalf("rotation flagged at count %d < M/2", sk.PuncturedCount())
	}
}

func TestParamsForPunctures(t *testing.T) {
	p := ParamsForPunctures(1000, 16)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MaxPunctures() < 1000 {
		t.Fatalf("budget %d < requested 1000", p.MaxPunctures())
	}
	if p.K != 16 {
		t.Fatalf("K = %d", p.K)
	}
	// degenerate inputs still validate
	if err := ParamsForPunctures(0, 0).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicKeySerialization(t *testing.T) {
	_, pk := keygen(t)
	parsed, err := PublicKeyFromBytes(pk.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.M != pk.M || parsed.K != pk.K || len(parsed.Points) != len(pk.Points) {
		t.Fatal("parsed params mismatch")
	}
	for i := range pk.Points {
		if !bytes.Equal(parsed.Points[i].Bytes(), pk.Points[i].Bytes()) {
			t.Fatalf("point %d mismatch", i)
		}
	}
	if _, err := PublicKeyFromBytes(pk.Bytes()[:40]); err == nil {
		t.Fatal("truncated public key accepted")
	}
	if _, err := PublicKeyFromBytes(nil); err == nil {
		t.Fatal("empty public key accepted")
	}
}

func TestKeyGenSecretOnlyAndPublicKeyAt(t *testing.T) {
	p := Params{M: 64, K: 4}
	sk, err := KeyGenSecretOnly(p, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the public key position-by-position via PublicKeyAt and
	// round-trip a message through it.
	full := &PublicKey{Params: p}
	for i := 0; i < p.M; i++ {
		pt, err := sk.PublicKeyAt(i)
		if err != nil {
			t.Fatal(err)
		}
		full.Points = append(full.Points, pt)
	}
	ct, err := full.Encrypt([]byte("sparse"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptAndPuncture(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "sparse" {
		t.Fatal("sparse round-trip failed")
	}
}

func TestMeterChargesRotationCost(t *testing.T) {
	m := meter.New()
	p := Params{M: 128, K: 4}
	if _, _, err := KeyGen(p, securestore.NewMemOracle(), rand.Reader, m); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot()[meter.OpECMul]; got != 128 {
		t.Fatalf("KeyGen charged %d EC mults, want 128", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{{M: 0, K: 1}, {M: 10, K: 0}, {M: 10, K: 11}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %+v validated", p)
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	_, pk := keygen(b)
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(msg, nil, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptAndPuncture(b *testing.B) {
	p := Params{M: 1 << 14, K: 8}
	sk, pk, err := KeyGen(p, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		b.Fatal(err)
	}
	cts := make([][]byte, b.N)
	for i := range cts {
		ct, err := pk.Encrypt([]byte("m"), nil, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.DecryptAndPuncture(cts[i], nil); err != nil && !errors.Is(err, ErrPunctured) {
			b.Fatal(err)
		}
	}
}

func TestDeterministicTagSharedPuncture(t *testing.T) {
	// Two ciphertexts created with the same tag (a client's same-salt
	// backup series) die together on one puncture — the §8 semantics.
	sk, pk := keygen(t)
	tag := bytes.Repeat([]byte{9}, TagSize)
	ct1, err := pk.EncryptWithTag(tag, []byte("backup-1"), []byte("ad"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := pk.EncryptWithTag(tag, []byte("backup-2"), []byte("ad"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.DecryptAndPuncture(ct2, []byte("ad")); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Decrypt(ct1, []byte("ad")); !errors.Is(err, ErrPunctured) {
		t.Fatalf("earlier same-tag ciphertext survived puncture: %v", err)
	}
}

func TestEncryptWithTagValidatesLength(t *testing.T) {
	_, pk := keygen(t)
	if _, err := pk.EncryptWithTag([]byte{1, 2}, []byte("m"), nil, rand.Reader); err == nil {
		t.Fatal("short tag accepted")
	}
}

func TestFleetTagStability(t *testing.T) {
	// Fleet encryptions of one series reuse positions (same tag), so
	// puncturing one kills the other; another series gets its own tag. The
	// tag is the series' alone: the ad, which names the recipient, does not
	// move it.
	sk, pk, err := KeyGen(testParams, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet([]*PublicKey{pk})
	series, ad := []byte("user|salt|pos0"), []byte("user|salt|pos0|hsm0")
	ct1, err := f.EncryptTo(0, series, []byte("m1"), ad, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := f.EncryptTo(0, series, []byte("m2"), []byte("user|salt|pos0|hsm7"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ctOther, err := f.EncryptTo(0, []byte("user|salt|pos1"), []byte("m3"), ad, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct1[:TagSize], ct2[:TagSize]) || bytes.Equal(ct1[:TagSize], ctOther[:TagSize]) {
		t.Fatal("the tag must be a function of the series and nothing else")
	}
	if _, err := sk.DecryptAndPuncture(ct1, ad); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Decrypt(ct2, []byte("user|salt|pos0|hsm7")); !errors.Is(err, ErrPunctured) {
		t.Fatal("same-series ciphertext survived puncture")
	}
	if got, err := sk.Decrypt(ctOther, ad); err != nil || string(got) != "m3" {
		t.Fatalf("another series' ciphertext damaged: %v", err)
	}
}

// TestKeyGenBatchDifferential pins the batch provisioning path to the
// per-point oracle structurally: same store geometry, pk[i] = sk[i]·G for
// every position, and full encrypt/decrypt/puncture behavior.
func TestKeyGenBatchDifferential(t *testing.T) {
	sk, pk, err := KeyGenBatch(testParams, securestore.NewMemOracle(), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pk.Points) != testParams.M {
		t.Fatalf("got %d public points, want %d", len(pk.Points), testParams.M)
	}
	// Every public point matches the stored secret scalar.
	for i := 0; i < testParams.M; i++ {
		got, err := sk.PublicKeyAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), pk.Points[i].Bytes()) {
			t.Fatalf("position %d: pk != sk·G", i)
		}
	}
	// The keypair behaves exactly like a KeyGen pair end to end.
	msg := []byte("key share")
	ad := []byte("user=batch")
	ct, err := pk.Encrypt(msg, ad, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round-trip mismatch")
	}
	if err := sk.Puncture(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Decrypt(ct, ad); err == nil {
		t.Fatal("decrypt after puncture must fail")
	}
}

func BenchmarkKeyGen1024(b *testing.B) {
	p := Params{M: 1024, K: 8}
	for i := 0; i < b.N; i++ {
		if _, _, err := KeyGen(p, securestore.NewMemOracle(), rand.Reader, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyGenBatch1024(b *testing.B) {
	p := Params{M: 1024, K: 8}
	for i := 0; i < b.N; i++ {
		if _, _, err := KeyGenBatch(p, securestore.NewMemOracle(), rand.Reader, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Puncture deletes ct's positions without decrypting; positions already
// gone are not counted twice.
func (sk *PrivateKey) Puncture(ct []byte) error {
	c, err := sk.parse(ct)
	if err != nil {
		return err
	}
	n, err := sk.store.DeleteMany(c.pos)
	sk.punctured += n
	return err
}

// PuncturedCount returns the number of filter positions deleted so far
// (positions shared by several punctured ciphertexts count once).
func (sk *PrivateKey) PuncturedCount() int { return sk.punctured }

// KeyGen generates a fresh keypair, outsourcing the secret array to oracle.
// m (which may be nil) is charged M point multiplications — the dominant
// cost of the paper's 75-hour on-HSM key rotation.
func KeyGen(p Params, oracle securestore.Oracle, rng io.Reader, m *meter.Meter) (*PrivateKey, *PublicKey, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	kps := make([]ecgroup.KeyPair, p.M)
	for i := range kps {
		var err error
		if kps[i], err = ecgroup.GenerateKeyPair(rng); err != nil {
			return nil, nil, err
		}
	}
	return outsource(p, kps, oracle, rng, m)
}
