package bfe

// layout_test.go is the hostile-input side of ciphertext layout v2
// (tag ‖ R ‖ K equal boxes, no framing) and of the one-pass decrypt: what a
// provider or another user can hand an HSM, and what must be left standing
// when an operation is refused half way.

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"safetypin/internal/ecgroup"
	"safetypin/internal/prg"
	"safetypin/internal/securestore"
)

// goldenKey is the key both golden vectors were made under: KeyGen over the
// stream prg.New("test/bfe-golden", nil), which then supplies the
// encryption's randomness.
func goldenKey(t *testing.T) (*PrivateKey, *PublicKey, io.Reader) {
	t.Helper()
	rng := prg.New("test/bfe-golden", nil)
	sk, pk, err := KeyGen(Params{M: 16, K: 4}, securestore.NewMemOracle(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sk, pk, rng
}

// goldenV1 is EncryptWithTag(SHA-256("golden tag"), "share", "ad") under
// goldenKey as the layout-v1 code wrote it (commit df7805d):
// tag ‖ u32 K ‖ K × (u32 len ‖ R_j ‖ box_j), 268 bytes.
const goldenV1 = "091b0a73527dccb047bbc1e41393e9a352c9d4d95b43c9afb7f741faa6dc7573" +
	"00000004" +
	"00000036033f321da66529d26d128b2f839809d573c33c351ad2714676d29cc36064c2a5237e22484b1afa6cb9c935be7800de0dd4008da2d6f8" +
	"00000036030760584d310b30455824ebf933a09d4f3018cefcdaa292408231210f7e50a5a87b331b5856461faeedfbc81644ae3c59f19db71aec" +
	"0000003602673798ff440e2d785ea29b6a626f84ff5eb8ea46056a0791ce5c6fd1d3d4d7ab695af424c90708832dda326aca7652e9e02c0fbc34" +
	"000000360336e51560840ab01c5835b1c9895c9f778da5515a94877a6022ae42a4b7f320db8bf8f180e03d348937d4d4ed3734453dda66c2e4b4"

// goldenV2 is the same encryption in layout v2: tag ‖ R ‖ 4 boxes of 21
// bytes, 149 bytes.
const goldenV2 = "091b0a73527dccb047bbc1e41393e9a352c9d4d95b43c9afb7f741faa6dc7573" +
	"033f321da66529d26d128b2f839809d573c33c351ad2714676d29cc36064c2a523" +
	"1bcaf2086ef4a542ee4902c02bf745ef8d9729400c" +
	"e2a4bac33ad5a2767f98015bb7f4696eb5264de509" +
	"6c454a2f30dc664f2dc83360e68fd0e64a14701bec" +
	"2a332088824e73006305267729928bd8c715193e81"

func TestGoldenV2(t *testing.T) {
	sk, pk, rng := goldenKey(t)
	tag := sha256.Sum256([]byte("golden tag"))
	ct, err := pk.EncryptWithTag(tag[:], []byte("share"), []byte("ad"), rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(ct); got != goldenV2 {
		t.Fatalf("layout v2 drifted:\n got %s\nwant %s", got, goldenV2)
	}
	if got, err := sk.Decrypt(ct, []byte("ad")); err != nil || string(got) != "share" {
		t.Fatalf("golden ciphertext decrypts to %q, %v", got, err)
	}
}

// TestV1CiphertextRejected: a backup made before the format bump is turned
// away by the parser — an error, no panic, nothing punctured — whatever K
// the key has.
func TestV1CiphertextRejected(t *testing.T) {
	v1, err := hex.DecodeString(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 4, 8} {
		if _, err := (Params{M: 16, K: k}).parse(v1); err == nil {
			t.Fatalf("K=%d parser accepted a layout-v1 ciphertext", k)
		}
	}
	sk, _, _ := goldenKey(t)
	if _, err := sk.DecryptAndPuncture(v1, []byte("ad")); err == nil {
		t.Fatal("layout-v1 ciphertext decrypted")
	}
	if err := sk.Puncture(v1); err == nil {
		t.Fatal("layout-v1 ciphertext punctured")
	}
	if sk.PuncturedCount() != 0 {
		t.Fatalf("refused ciphertext cost %d positions", sk.PuncturedCount())
	}
}

// TestMalformedCiphertexts: every way the length or the nonce can be wrong
// is an error from every entry point, and costs the key nothing.
func TestMalformedCiphertexts(t *testing.T) {
	sk, pk := keygen(t)
	ct, err := pk.Encrypt([]byte("m"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	withNonce := func(r []byte) []byte {
		mut := append([]byte{}, ct...)
		copy(mut[TagSize:headerSize], r)
		return mut
	}
	offCurve := bytes.Repeat([]byte{0xFF}, ecgroup.PointSize)
	offCurve[0] = 0x02
	for name, mut := range map[string][]byte{
		"empty":                      nil,
		"truncated inside the tag":   ct[:10],
		"header only":                ct[:headerSize],
		"boxes shorter than a tag":   ct[:headerSize+testParams.K*15],
		"one byte short":             ct[:len(ct)-1],
		"one byte long":              append(append([]byte{}, ct...), 0),
		"not a multiple of K":        append(append([]byte{}, ct...), make([]byte, testParams.K-1)...),
		"K bytes long, boxes shift":  append(append([]byte{}, ct...), make([]byte, testParams.K)...),
		"a whole extra box":          append(append([]byte{}, ct...), ct[headerSize:headerSize+17]...),
		"nonce is the identity":      withNonce(make([]byte, ecgroup.PointSize)),
		"nonce is off the curve":     withNonce(offCurve),
		"nonce has a bad first byte": withNonce(append([]byte{0x04}, ct[TagSize+1:headerSize]...)),
	} {
		if _, err := sk.Decrypt(mut, nil); err == nil {
			t.Errorf("%s: Decrypt accepted it", name)
		}
		if _, err := sk.DecryptAndPuncture(mut, nil); err == nil {
			t.Errorf("%s: DecryptAndPuncture accepted it", name)
		}
	}
	if sk.PuncturedCount() != 0 {
		t.Fatalf("malformed ciphertexts cost %d positions", sk.PuncturedCount())
	}
	if _, err := sk.Decrypt(ct, nil); err != nil {
		t.Fatalf("the well-formed ciphertext no longer decrypts: %v", err)
	}
}

// TestBoxBoundToItsName: the KDF no longer hashes the recipient's public
// key, so what keeps a box where it was sealed is its name — the caller's
// ad, the tag, the piece index, the filter position. The key here holds the
// SAME scalar at every position, the worst case for that: nothing but the
// name tells two boxes apart, and still none opens out of place.
func TestBoxBoundToItsName(t *testing.T) {
	s, err := ecgroup.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(p Params) (*PrivateKey, *PublicKey) {
		blocks := make([][]byte, p.M)
		pk := &PublicKey{Params: p, Points: make([]ecgroup.Point, p.M)}
		for i := range blocks {
			blocks[i], pk.Points[i] = s.Bytes(), ecgroup.BaseMul(s)
		}
		st, err := securestore.Setup(securestore.NewMemOracle(), blocks, rand.Reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &PrivateKey{Params: p, store: st}, pk
	}
	p := Params{M: 8, K: 2}
	sk, pk := uniform(p)
	wider, _ := uniform(Params{M: 64, K: 2}) // maps a tag to other positions

	tagA, tagB := bytes.Repeat([]byte{1}, TagSize), bytes.Repeat([]byte{2}, TagSize)
	posA, _ := p.positions(tagA)
	posB, _ := p.positions(tagB)
	posWide, _ := wider.positions(tagA)
	for j := range posA {
		if posA[j] == posB[j] || posA[j] == posWide[j] {
			t.Fatalf("piece %d keeps its position (%d, %d, %d): pick other test tags", j, posA[j], posB[j], posWide[j])
		}
	}
	ad := []byte("user|salt|pos0|hsm3")
	ct, err := pk.EncryptWithTag(tagA, []byte("share"), ad, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Decrypt(ct, ad); err != nil {
		t.Fatal(err)
	}
	boxLen := (len(ct) - headerSize) / p.K
	box := func(j int) []byte { return ct[headerSize+j*boxLen : headerSize+(j+1)*boxLen] }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	if _, err := sk.Decrypt(join(ct[:headerSize], box(1), box(0)), ad); err == nil {
		t.Error("boxes opened at each other's piece index")
	}
	if _, err := sk.Decrypt(join(tagB, ct[TagSize:headerSize], box(0), box(1)), ad); err == nil {
		t.Error("boxes opened under another tag")
	}
	if _, err := wider.Decrypt(ct, ad); err == nil {
		t.Error("boxes opened at other filter positions of the same tag")
	}
	// Another HSM holding the very same scalars is another name.
	if _, err := sk.Decrypt(ct, []byte("user|salt|pos0|hsm4")); err == nil {
		t.Error("box opened under another recipient's name")
	}
}

// TestFusedPassAtomicity: the decrypt and its puncture are one pass of the
// store, and a pass that does not complete changes nothing — not the root
// key, not a byte at the provider, not the puncture count — so the share is
// still there for its owner.
func TestFusedPassAtomicity(t *testing.T) {
	oracle := newRecordingOracle()
	sk, pk, err := KeyGen(Params{M: 256, K: 4}, oracle, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := pk.Encrypt([]byte("share"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	root, stored := sk.store.RootKey(), oracle.Blocks()
	untouched := func(when string, gets, puts int) {
		t.Helper()
		if oracle.gets != gets || oracle.puts != puts {
			t.Fatalf("%s: %d reads and %d writes, want %d and %d", when, oracle.gets, oracle.puts, gets, puts)
		}
		if !bytes.Equal(sk.store.RootKey(), root) {
			t.Fatalf("%s: root key advanced", when)
		}
		now := oracle.Blocks()
		if len(now) != len(stored) {
			t.Fatalf("%s: provider holds %d blocks, had %d", when, len(now), len(stored))
		}
		for addr, b := range stored {
			if !bytes.Equal(now[addr], b) {
				t.Fatalf("%s: node %d was rewritten", when, addr)
			}
		}
		if sk.PuncturedCount() != 0 {
			t.Fatalf("%s: %d positions counted as punctured", when, sk.PuncturedCount())
		}
		oracle.gets, oracle.puts = 0, 0
		if got, err := sk.Decrypt(ct, nil); err != nil || string(got) != "share" {
			t.Fatalf("%s: share no longer recoverable: %q, %v", when, got, err)
		}
		oracle.gets, oracle.puts = 0, 0
	}

	oracle.gets, oracle.puts = 0, 0
	refusal := errors.New("bound to another user")
	if _, err := sk.DecryptAndPunctureIf(ct, nil, func([]byte) error { return refusal }); !errors.Is(err, refusal) {
		t.Fatalf("refused check returned %v", err)
	}
	untouched("check refuses", 1, 0)

	oracle.putErr = errors.New("disk full")
	if _, err := sk.DecryptAndPuncture(ct, nil); !errors.Is(err, oracle.putErr) {
		t.Fatalf("failed write returned %v", err)
	}
	oracle.putErr = nil
	untouched("PutMany fails", 1, 1)

	if got, err := sk.DecryptAndPuncture(ct, nil); err != nil || string(got) != "share" {
		t.Fatalf("DecryptAndPuncture = %q, %v", got, err)
	}
	if oracle.gets != 1 || oracle.puts != 1 || sk.PuncturedCount() != 4 {
		t.Fatalf("puncture: %d reads, %d writes, %d positions; want 1, 1, 4", oracle.gets, oracle.puts, sk.PuncturedCount())
	}
	oracle.gets, oracle.puts = 0, 0
	if _, err := sk.DecryptAndPuncture(ct, nil); !errors.Is(err, ErrPunctured) {
		t.Fatalf("replay returned %v, want ErrPunctured", err)
	}
	if oracle.gets != 1 || oracle.puts != 0 {
		t.Fatalf("replay: %d reads and %d writes, want 1 and 0", oracle.gets, oracle.puts)
	}
}
