package bfe

import (
	"crypto/rand"
	"testing"

	"safetypin/internal/ecgroup"
	"safetypin/internal/ratioguard"
	"safetypin/internal/securestore"
)

// BenchmarkRatioGuards holds the share path to what its arithmetic costs
// (package ratioguard). Each comment gives the ratio measured on a shared
// 2-vCPU host and the ratio of the regression its bound sits below.
func BenchmarkRatioGuards(b *testing.B) {
	ratioguard.Run(b, []ratioguard.Guard{{
		// One nonce per share: ≈ 0.97–1.12; a nonce per box again: ≈ 1.25.
		Name: "Encrypt/(8·PointMul+BaseMul)", Num: BenchmarkEncrypt, Den: benchEncryptArithmetic, Max: 1.15,
	}, {
		// One store pass: ≈ 0.92–1.20; a second pass over the store, or
		// the sk·G the KDF used to want: past 1.5.
		Name: "DecryptAndPuncture/(ReadDelete8Of16K+PointMul)", Num: BenchmarkDecryptAndPuncture, Den: benchDecryptArithmetic, Max: 1.25,
	}})
}

// benchEncryptArithmetic is the arithmetic of one BenchmarkEncrypt share:
// the nonce R = r·G and the K shared points r·pk_j.
func benchEncryptArithmetic(b *testing.B) {
	s, err := ecgroup.RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	p := ecgroup.BaseMul(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecgroup.BaseMul(s)
		for j := 0; j < testParams.K; j++ {
			p.Mul(s)
		}
	}
}

// benchDecryptArithmetic is what one BenchmarkDecryptAndPuncture call
// cannot do without: one pass over a 2^14-leaf store that reads and
// deletes K = 8 leaves, and the multiplication sk·R.
func benchDecryptArithmetic(b *testing.B) {
	const n, k = 1 << 14, 8
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = make([]byte, 32)
	}
	st, err := securestore.Setup(securestore.NewMemOracle(), leaves, rand.Reader, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := ecgroup.RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	p := ecgroup.BaseMul(s)
	idx := make([]int, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range idx {
			idx[j] = (i*k + j) * 7919 % n
		}
		if _, err := st.ReadDelete(idx, func([][]byte) (bool, error) { return true, nil }); err != nil {
			b.Fatal(err)
		}
		p.Mul(s)
	}
}
