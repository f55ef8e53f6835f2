package bls

// seed_compat_test.go pins byte-level compatibility with the original
// math/big implementation. The golden vectors below were generated by
// running the pre-rewrite package (commit af9c6fa) with the deterministic
// RNG defined here. Keys and aggregate keys must still match byte for
// byte. The seed signed with a try-and-increment hash that this package
// no longer has, so its signatures and hashed point are must-reject
// goldens: none of them may verify or be reproduced.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// detRNG is a deterministic byte stream: SHA-256 counter mode over a seed.
type detRNG struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func (d *detRNG) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		h := sha256.New()
		h.Write(d.seed)
		var c [8]byte
		for i := 0; i < 8; i++ {
			c[i] = byte(d.ctr >> (8 * uint(i)))
		}
		h.Write(c[:])
		d.ctr++
		d.buf = append(d.buf, h.Sum(nil)...)
	}
	copy(p, d.buf[:len(p)])
	d.buf = d.buf[len(p):]
	return len(p), nil
}

var seedGolden = struct {
	pks, sigs []string
	agg, apk  string
	hash      string
}{
	pks: []string{
		"0413c91c3657cbd56b2a226830bb07fd6395e1b7002ad768909ab2e21f159fb0d6b172f049f50c1d53a64c161b11bb890807d8c955232adbb9936a85b148e300c1c40b0e6ea0363fadc148299af84b14f2a1dc59114811eef80c4aadcf73bdac47158e82c6e785ca91baeea2291891cbfbb49fb1548aeeea69ebc37432c91c0e26117bcfbb683c4af26b1bde8881388a640efd0958e3b5d3819cdce462c23c70ba75a5a41fd9da26f1c52713782755d147f7f62d4542982ff9f55deb1b2a953f3f",
		"0414557662ca7aed6baac616bc90cbd8775558d84bb5fdaedfa89862082c17ff012e97b135f300262cb684f1388d85ed8c13ce736a1f495bf823adbf1804fc069d20dcea5402ea1294b17c4f3b315f2b8a812d7aa39e2b901c6788182cb2cbadf0084200f6ab447ffdca78a95e65c52084d1a1c89ea599dcf980a94df2a0e5401e1b9cad7c713ae3675864199323e046681892ecd12f0870405b33ab63bf395062631e25bd35c5e2412c0bf65328de3248e40a3948b15c7560d5341f742ac70370",
		"0413f6499c711c618049d3614bfe1d94621dfecf9d2c894d806615b85cf42f8065950787bbf33a166091299451a7341fd812d92e7b313c1d943a56aa7bd57a09818721a319ccb6ff996502a0a99d56e671aa2038ae36163c463154b8b91d4ae3121843f5c2c265574dc3788ed277030c9cc6be86d0c4e997af87ce9e275b9a15d645495711381993fea8fc011717d70d1a0c990e6d2b09ac4caf41664d289a8b445ae5698f8f374cc3cff0859d3ac95074faa8f5d91c3e47529cfde076ddeccf52",
		"0409121ad927d58070e186198ef225800304ba962e1bdee7ae316fed5f2275084b2ae725c9e8f2e8c5acb99bdba73e439d08fc44ca29b0b885d01f5827070741234b5f635bde9ea7beecdc40b4c47d7661248695a668f5b2b4313db10e6fb9f82e0a2914b869f41451dc83f5c2a0cc7f6890a007e2c4519f6d6d1cd1c3a06bb9fb60bd034098a88e9dcde09eedc3b0d07806633d8280cc2f37d86ce707975693c8bd4d3cb7b0950e603f9d0394030f877dfd2c6a2ecface088a159789af7727b72",
	},
	sigs: []string{
		"040178d0b19e805593442b18903dfb37aca2dfad7a328ce383889432d94c7936e3f76b153221014c6aa0e45b49babd6ca509b9bb03a89c04940e682068f349b9a941df9e2a52b05d27af12330e74975c76aa89618404db644ff84df7585bbde366",
		"0408f3301ad1250facd58d609140aa5ac3b7393079f0be7b90ca0754e18a40724292636a5993e6a78028628552dd6c77430064f286bdde455a7d52c2aed272c88bc88eef7a93e3ac6011e175d8891a1dae33002cab0300de04f761ffb5bb618328",
		"0415737254957bad0f5210cf61bcc2fd4bd9d5a400298761d5ecc8c66ae8d6b724f64486d266acb25e6f836b33bd653ccd15ed16a0da940381954e1f430cbc65ddb65cccaa6a64d85ae6e9694274a0d1bfb0905fdcce2da4bca5e5320ee2ef27ce",
		"0404ab2f8e8f92f76827a341e74f9e5fbad04a2ae8c3df9cf43b2124261ba26b84989c1e4135125cf0f27408a2e73853f11601ab0e6b46a7f05b002379b7a22578b967d818a316b4091fb530b1e6c7690a80960fc3c38776b2747d4f457e6ca5b2",
	},
	agg:  "04096be721d44fb616657cb6770079ec43629262eba355d3b0f1921e846f980993f9532100e88744673dad6494c7716d2605d9ec97309037a5a6fcb8a708f1db87a90a93047ffb16ccc80a17f0578a931caaad9092338ac8115db02e8f6836e742",
	apk:  "040416bef1e3679cc9f7fb237fb86c34094984f962cb87ac9f1ac729c565e651d181bd87fdfb774334aa456cc46730ddfd1756e58503cab35e51c5927f8e2fdc1b0bc0dc20144fbb8a3d687ac9aa4ff87a179127db252317a408b3f74e84fe52610973900b3a97a86cbcba456f13676c57b9c17ebd1177a69991db7a17b0b9b9453a34515d681480d4651a178f18bcbd7a08171b820f593b30f44fa97344ea4b473740457f4bed1abe9e92ac5fe7f86eb6b477a4d13ed38294cc62e275bd9367c5",
	hash: "04192ba3356717a19206e7f81011d8bbbfe7a4162a1ff5737e34089af781b21521aad60b3e2338c211f51f867382c8ca5d057e0753859d6245c2f16654ee886695bb6a47b13bc72375526230592c4df7919a712be14fceb31e476313b9e4c2eae0",
}

func TestSeedByteCompatibility(t *testing.T) {
	rng := &detRNG{seed: []byte("aggsig-differential-v1")}
	msg := []byte("the shared log-update tuple")
	var sigs []*Signature
	var pks []*PublicKey
	for i := 0; i < 4; i++ {
		sk, pk, err := GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(pk.Bytes()); got != seedGolden.pks[i] {
			t.Fatalf("pk%d drifted from seed implementation:\n got %s\nwant %s", i, got, seedGolden.pks[i])
		}
		sig := mustSeedSig(t, seedGolden.sigs[i])
		if ok, _ := pk.Verify(msg, sig); ok {
			t.Fatalf("seed signature %d verified under the RFC 9380 hash", i)
		}
		// The key itself is sound: a fresh signature verifies.
		if ok, err := pk.Verify(msg, sk.Sign(msg)); err != nil || !ok {
			t.Fatalf("pk%d rejected its own signature", i)
		}
		sigs = append(sigs, sig)
		pks = append(pks, pk)
	}
	// Aggregation does not depend on the hash: the seed's signatures still
	// sum to the seed's aggregate bytes.
	agg, err := AggregateSignatures(sigs)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(agg.Bytes()); got != seedGolden.agg {
		t.Fatal("aggregate signature bytes drifted from seed implementation")
	}
	apk, err := AggregatePublicKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(apk.Bytes()); got != seedGolden.apk {
		t.Fatal("aggregate public key bytes drifted from seed implementation")
	}
	if ok, _ := apk.Verify(msg, mustSeedSig(t, seedGolden.agg)); ok {
		t.Fatal("seed aggregate verified under the RFC 9380 hash")
	}
}

func mustSeedSig(t *testing.T, h string) *Signature {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := SignatureFromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}
