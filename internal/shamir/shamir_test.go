package shamir

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"

	"safetypin/internal/ff"
	"safetypin/internal/prg"
)

// randomElement samples a uniform field element.
func randomElement(t testing.TB) ff.Element {
	t.Helper()
	e, err := ff.Random(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// equal compares field elements by their canonical encodings.
func equal(a, b ff.Element) bool { return bytes.Equal(a.Bytes(), b.Bytes()) }

func TestSplitReconstructExact(t *testing.T) {
	secret := randomElement(t)
	shares, err := Split(secret, 3, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(shares[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, secret) {
		t.Fatal("reconstruction from first t shares failed")
	}
}

func TestReconstructAnySubset(t *testing.T) {
	secret := randomElement(t)
	shares, err := Split(secret, 3, 6, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// every 3-subset of 6 shares must reconstruct
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			for k := j + 1; k < 6; k++ {
				got, err := Reconstruct([]Share{shares[i], shares[j], shares[k]}, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !equal(got, secret) {
					t.Fatalf("subset (%d,%d,%d) failed", i, j, k)
				}
			}
		}
	}
}

func TestThresholdMinusOneRevealsNothing(t *testing.T) {
	// With t-1 shares fixed, every candidate secret is consistent with some
	// polynomial: check that reconstructing with a forged t-th share can
	// produce an arbitrary target value, i.e. t-1 shares do not determine
	// the secret.
	secret := randomElement(t)
	shares, err := Split(secret, 3, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	partial := shares[:2]
	// Forge third shares and observe that outcomes vary (are not pinned to
	// the true secret).
	sawDifferent := false
	for i := 0; i < 8; i++ {
		forged := Share{X: 5, Y: randomElement(t)}
		got, err := Reconstruct(append(append([]Share{}, partial...), forged), 3)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(got, secret) {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Fatal("t-1 shares appear to determine the secret")
	}
}

func TestThresholdOne(t *testing.T) {
	secret := randomElement(t)
	shares, err := Split(secret, 1, 4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shares {
		got, err := Reconstruct([]Share{s}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(got, secret) {
			t.Fatal("t=1 share should equal the secret")
		}
	}
}

func TestFullThreshold(t *testing.T) {
	secret := randomElement(t)
	shares, err := Split(secret, 5, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(shares, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, secret) {
		t.Fatal("t=n reconstruction failed")
	}
	if _, err := Reconstruct(shares[:4], 5); err == nil {
		t.Fatal("expected error with too few shares")
	}
}

func TestParameterValidation(t *testing.T) {
	secret := randomElement(t)
	if _, err := Split(secret, 0, 5, rand.Reader); err == nil {
		t.Fatal("expected error for t=0")
	}
	if _, err := Split(secret, 6, 5, rand.Reader); err == nil {
		t.Fatal("expected error for t>n")
	}
}

func TestDuplicateShareRejected(t *testing.T) {
	secret := randomElement(t)
	shares, _ := Split(secret, 2, 3, rand.Reader)
	if _, err := Reconstruct([]Share{shares[0], shares[0]}, 2); err == nil {
		t.Fatal("expected duplicate-index rejection")
	}
}

func TestZeroIndexRejected(t *testing.T) {
	if _, err := Reconstruct([]Share{{X: 0, Y: ff.One()}, {X: 1, Y: ff.One()}}, 2); err == nil {
		t.Fatal("expected zero-index rejection")
	}
}

func TestShareSerializationRoundTrip(t *testing.T) {
	err := quick.Check(func(raw []byte, x uint16) bool {
		s := Share{X: int(x) + 1, Y: ff.FromInt64(int64(len(raw)) + 7)}
		got, err := ShareFromBytes(s.Bytes())
		if err != nil {
			return false
		}
		return got.X == s.X && equal(got.Y, s.Y)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestShareFromBytesRejects(t *testing.T) {
	if _, err := ShareFromBytes([]byte{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	z := Share{X: 0, Y: ff.One()}.Bytes()
	if _, err := ShareFromBytes(z); err == nil {
		t.Fatal("expected zero-index error")
	}
}

func TestSplitBytesRoundTrip(t *testing.T) {
	err := quick.Check(func(msg []byte, tRaw, extraRaw uint8) bool {
		if len(msg) > ff.MaxSecretLen {
			msg = msg[:ff.MaxSecretLen]
		}
		th := int(tRaw%8) + 1
		n := th + int(extraRaw%8)
		shares, err := SplitBytes(msg, th, n, rand.Reader)
		if err != nil {
			return false
		}
		got, err := ReconstructBytes(shares[n-th:], th)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicWithPRG(t *testing.T) {
	// Using a deterministic rng must yield identical shares: needed nowhere
	// in the protocol but pins down that Split's randomness comes only from
	// rng (no hidden global state).
	secret := ff.FromInt64(12345)
	a, err := Split(secret, 3, 5, prg.New("shamir-test", []byte("seed")))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(secret, 3, 5, prg.New("shamir-test", []byte("seed")))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].X != b[i].X || !equal(a[i].Y, b[i].Y) {
			t.Fatal("Split not deterministic under deterministic rng")
		}
	}
}

func TestPaperParameters(t *testing.T) {
	// n = 40, t = 20: the paper's cluster configuration.
	secret := randomElement(t)
	shares, err := Split(secret, 20, 40, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a random f_live-style subset (keep exactly t).
	got, err := Reconstruct(shares[11:31], 20)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, secret) {
		t.Fatal("paper-parameter reconstruction failed")
	}
}

func BenchmarkSplit20of40(b *testing.B) {
	secret := randomElement(b)
	for i := 0; i < b.N; i++ {
		if _, err := Split(secret, 20, 40, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct20of40(b *testing.B) {
	secret := randomElement(b)
	shares, _ := Split(secret, 20, 40, rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(shares[:20], 20); err != nil {
			b.Fatal(err)
		}
	}
}
