package ecgroup

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func testScalar(t *testing.T) Scalar {
	t.Helper()
	s, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// one is the scalar 1, so BaseMul(one) is the generator.
var one = Scalar{big.NewInt(1)}

func TestGeneratorOnCurve(t *testing.T) {
	g := BaseMul(one)
	if g.IsIdentity() {
		t.Fatal("generator is identity")
	}
	if _, err := PointFromBytes(g.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestScalarBaseMulMatchesMul(t *testing.T) {
	s := testScalar(t)
	if !BaseMul(s).Equal(BaseMul(one).Mul(s)) {
		t.Fatal("BaseMul(s) != s·BaseMul(1)")
	}
}

func TestGroupLaws(t *testing.T) {
	// a(bG) == (ab)G, the product taken in Z_q outside the package's API.
	a, b := testScalar(t), testScalar(t)
	ab := new(big.Int).Mul(a.v, b.v)
	if !BaseMul(b).Mul(a).Equal(BaseMul(Scalar{ab.Mod(ab, curve.Params().N)})) {
		t.Fatal("scalar multiplication associativity broken")
	}
}

func TestIdentityLaws(t *testing.T) {
	P := BaseMul(testScalar(t))
	if !Identity().Mul(testScalar(t)).IsIdentity() {
		t.Fatal("s*0 != 0")
	}
	if !P.Mul(Scalar{}).IsIdentity() {
		t.Fatal("0*P != 0")
	}
}

func TestPointSerializationRoundTrip(t *testing.T) {
	for i := 0; i < 16; i++ {
		P := BaseMul(testScalar(t))
		got, err := PointFromBytes(P.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(P) {
			t.Fatal("round-trip mismatch")
		}
	}
}

func TestIdentitySerialization(t *testing.T) {
	enc := Identity().Bytes()
	if len(enc) != PointSize {
		t.Fatalf("identity encoding length %d", len(enc))
	}
	got, err := PointFromBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsIdentity() {
		t.Fatal("identity did not round-trip")
	}
}

func TestPointFromBytesRejectsGarbage(t *testing.T) {
	if _, err := PointFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected length rejection")
	}
	bad := make([]byte, PointSize)
	bad[0] = 0x02
	for i := 1; i < PointSize; i++ {
		bad[i] = 0xFF
	}
	if _, err := PointFromBytes(bad); err == nil {
		t.Fatal("expected off-curve rejection")
	}
}

func TestScalarSerialization(t *testing.T) {
	err := quick.Check(func(raw []byte) bool {
		s := ScalarReduce(raw)
		got, err := ScalarFromBytes(s.Bytes())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Bytes(), s.Bytes())
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestScalarFromBytesRejectsNonCanonical(t *testing.T) {
	enc := make([]byte, ScalarSize)
	curve.Params().N.FillBytes(enc)
	if _, err := ScalarFromBytes(enc); err == nil {
		t.Fatal("expected rejection of scalar == q")
	}
}

func TestDiffieHellmanAgreement(t *testing.T) {
	// The hashed-ElGamal KEM depends on commutativity: a·(bG) == b·(aG).
	a, b := testScalar(t), testScalar(t)
	if !BaseMul(b).Mul(a).Equal(BaseMul(a).Mul(b)) {
		t.Fatal("DH agreement failed")
	}
}

func TestMulByOrderIsIdentity(t *testing.T) {
	// G has order q: (q−1)² ≡ 1 mod q, so (q−1)·((q−1)·G) must be G again.
	// (ScalarFromBytes rejects q itself.)
	qMinus1 := Scalar{new(big.Int).Sub(curve.Params().N, big.NewInt(1))}
	if !BaseMul(qMinus1).Mul(qMinus1).Equal(BaseMul(one)) {
		t.Fatal("(q-1)·(q-1)·G != G")
	}
	if BaseMul(qMinus1).Equal(BaseMul(one)) {
		t.Fatal("(q-1)·G == G")
	}
}

func BenchmarkBaseMul(b *testing.B) {
	s, _ := RandomScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaseMul(s)
	}
}

func BenchmarkPointMul(b *testing.B) {
	s, _ := RandomScalar(rand.Reader)
	P := BaseMul(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		P.Mul(s)
	}
}

// TestGenerateKeyPairsDifferential pins the batch path to the per-key
// oracle: pk = sk·G under BaseMul for every batch entry.
func TestGenerateKeyPairsDifferential(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		kps, err := GenerateKeyPairs(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(kps) != n {
			t.Fatalf("GenerateKeyPairs(%d) returned %d keys", n, len(kps))
		}
		for i, kp := range kps {
			if kp.SK.IsZero() {
				t.Fatalf("batch %d key %d: zero scalar", n, i)
			}
			if want := BaseMul(kp.SK); !want.Equal(kp.PK) {
				t.Fatalf("batch %d key %d: pk != sk·G", n, i)
			}
		}
	}
	if _, err := GenerateKeyPairs(rand.Reader, -1); err == nil {
		t.Fatal("negative batch size must error")
	}
}

func BenchmarkGenerateKeyPairs64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKeyPairs(rand.Reader, 64); err != nil {
			b.Fatal(err)
		}
	}
}
