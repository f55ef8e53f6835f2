package bls

// g2_ct_test.go proves the constant-time keygen comb bit-identical to
// double-and-add (mulRaw) across the edge scalars the fixups and the
// exception-freeness argument cover: 0, 1, r−1, and values reduced from
// r, ≥ r and negatives.

import (
	"bytes"
	crand "crypto/rand"
	"math/big"
	"math/rand"
	"testing"
)

// g2EdgeScalars is the boundary set shared by the differential tests: the
// masked-fixup cases (0, tiny digits), window boundaries, r−1, and values
// that reduce to these (r, > r, negative) through scalarOf.
func g2EdgeScalars() []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		big.NewInt(17),
		big.NewInt(255),
		new(big.Int).Sub(Order(), big.NewInt(1)), // r − 1 = −1 mod r
		new(big.Int).Sub(Order(), big.NewInt(2)),
		Order(),                                  // reduces to 0
		new(big.Int).Add(Order(), big.NewInt(5)), // ≥ r
		new(big.Int).Mul(Order(), big.NewInt(3)),
		new(big.Int).Neg(big.NewInt(7)),
		new(big.Int).Lsh(big.NewInt(1), 200),       // long zero-window tail
		new(big.Int).SetBit(big.NewInt(3), 252, 1), // leading digit + gap
	}
}

// g2MulGenOracle is k·G by double-and-add, after reducing k mod r.
func g2MulGenOracle(k *big.Int) G2 {
	return G2Generator().mulRaw(new(big.Int).Mod(k, rOrder))
}

func TestG2MulGenSecretDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5afe2))
	scalars := g2EdgeScalars()
	for i := 0; i < 40; i++ {
		scalars = append(scalars, new(big.Int).Rand(rng, Order()))
	}
	for _, k := range scalars {
		want := g2MulGenOracle(k)
		s := scalarOf(k)
		got := G2MulGenSecret(&s)
		if !want.Equal(got) {
			t.Fatalf("G2MulGenSecret(%v) disagrees with double-and-add", k)
		}
		// Bit-identical serialization, not just group equality.
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("G2MulGenSecret(%v) serialization differs from double-and-add", k)
		}
	}
}

func TestGenerateKeyBatch(t *testing.T) {
	sks, pks, err := GenerateKeyBatch(crand.Reader, 17) // odd batch size
	if err != nil {
		t.Fatal(err)
	}
	if len(sks) != 17 || len(pks) != 17 {
		t.Fatalf("got %d/%d keys", len(sks), len(pks))
	}
	for i := range sks {
		// Public key matches double-and-add on the same scalar and is
		// already normalized.
		if want := g2MulGenOracle(sks[i].s.big()); !want.Equal(pks[i].p) {
			t.Fatalf("key %d: public key disagrees with double-and-add", i)
		}
		if !pks[i].p.z.isOne() {
			t.Fatalf("key %d: public key not batch-normalized", i)
		}
		// The pair signs and verifies like any GenerateKey pair.
		sig := sks[i].Sign([]byte("batch-keygen"))
		ok, err := pks[i].Verify([]byte("batch-keygen"), sig)
		if err != nil || !ok {
			t.Fatalf("key %d: sign/verify failed: ok=%v err=%v", i, ok, err)
		}
	}
	// Degenerate sizes.
	if sks, pks, err := GenerateKeyBatch(crand.Reader, 0); err != nil || len(sks) != 0 || len(pks) != 0 {
		t.Fatalf("empty batch: %d/%d keys, err=%v", len(sks), len(pks), err)
	}
	if _, _, err := GenerateKeyBatch(crand.Reader, -1); err == nil {
		t.Fatal("negative batch size must error")
	}
}

// FuzzG2MulGenSecret cross-checks the CT comb against double-and-add on
// arbitrary scalar bytes.
func FuzzG2MulGenSecret(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(Order().Bytes())
	f.Add(new(big.Int).Sub(Order(), big.NewInt(1)).Bytes())
	f.Add(new(big.Int).Lsh(big.NewInt(1), 255).Bytes())
	f.Fuzz(func(t *testing.T, kb []byte) {
		if len(kb) > 40 {
			kb = kb[:40]
		}
		k := new(big.Int).SetBytes(kb)
		want := g2MulGenOracle(k)
		s := scalarOf(k)
		got := G2MulGenSecret(&s)
		if !want.Equal(got) {
			t.Fatalf("comb disagrees with double-and-add on k=%v", k)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("comb serialization differs on k=%v", k)
		}
	})
}

func BenchmarkG2MulGenSecret(b *testing.B) {
	k := scalarOf(new(big.Int).Sub(Order(), big.NewInt(12345)))
	G2MulGenSecret(&k) // warm the table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		G2MulGenSecret(&k)
	}
}

func BenchmarkKeyGenBatch(b *testing.B) {
	rng := crand.Reader
	_, _, _ = GenerateKeyBatch(rng, 1) // warm the table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GenerateKeyBatch(rng, 64); err != nil {
			b.Fatal(err)
		}
	}
}
