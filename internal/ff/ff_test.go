package ff

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// arbitrary returns a deterministic-but-varied element from raw bytes.
func arbitrary(raw []byte) Element {
	return FromBig(new(big.Int).SetBytes(raw))
}

func TestModulusIsExpected(t *testing.T) {
	want, _ := new(big.Int).SetString(
		"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed", 16)
	if Modulus().Cmp(want) != 0 {
		t.Fatalf("modulus mismatch: %x", Modulus())
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	err := quick.Check(func(a, b []byte) bool {
		x, y := arbitrary(a), arbitrary(b)
		return x.Add(y).Sub(y).Equal(x)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	err := quick.Check(func(a, b, c []byte) bool {
		x, y, z := arbitrary(a), arbitrary(b), arbitrary(c)
		if !x.Mul(y).Equal(y.Mul(x)) {
			return false
		}
		return x.Mul(y).Mul(z).Equal(x.Mul(y.Mul(z)))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributivity(t *testing.T) {
	err := quick.Check(func(a, b, c []byte) bool {
		x, y, z := arbitrary(a), arbitrary(b), arbitrary(c)
		return x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z)))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	err := quick.Check(func(a []byte) bool {
		x := arbitrary(a)
		if x.IsZero() {
			return true
		}
		inv, err := x.Inv()
		if err != nil {
			return false
		}
		return x.Mul(inv).Equal(One())
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestInverseOfZeroFails(t *testing.T) {
	if _, err := Zero().Inv(); err == nil {
		t.Fatal("expected error inverting zero")
	}
	if _, err := One().Div(Zero()); err == nil {
		t.Fatal("expected error dividing by zero")
	}
}

func TestNeg(t *testing.T) {
	err := quick.Check(func(a []byte) bool {
		x := arbitrary(a)
		return x.Add(x.Neg()).IsZero()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	err := quick.Check(func(a []byte) bool {
		x := arbitrary(a)
		y, err := FromBytes(x.Bytes())
		if err != nil {
			return false
		}
		return x.Equal(y)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFromBytesRejectsNonCanonical(t *testing.T) {
	enc := Modulus().Bytes() // == p, which is >= p
	buf := make([]byte, ElementSize)
	copy(buf[ElementSize-len(enc):], enc)
	if _, err := FromBytes(buf); err == nil {
		t.Fatal("expected rejection of encoding >= p")
	}
	if _, err := FromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected rejection of short encoding")
	}
}

func TestEmbedExtractRoundTrip(t *testing.T) {
	err := quick.Check(func(msg []byte) bool {
		if len(msg) > MaxSecretLen {
			msg = msg[:MaxSecretLen]
		}
		e, err := Embed(msg)
		if err != nil {
			return false
		}
		got, err := Extract(e)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmbedPreservesLeadingZeros(t *testing.T) {
	msg := []byte{0, 0, 0, 42}
	e, err := Embed(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Extract(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %x want %x", got, msg)
	}
}

func TestEmbedRejectsLong(t *testing.T) {
	if _, err := Embed(make([]byte, MaxSecretLen+1)); err == nil {
		t.Fatal("expected error embedding 32 bytes")
	}
}

func TestExtractRejectsGarbage(t *testing.T) {
	// An element with an impossible length prefix must not extract.
	huge := FromBig(new(big.Int).Lsh(big.NewInt(200), 8*MaxSecretLen))
	if _, err := Extract(huge); err == nil {
		t.Fatal("expected extract failure for bogus length prefix")
	}
}

func TestZeroValueElementIsZero(t *testing.T) {
	var e Element
	if !e.IsZero() {
		t.Fatal("zero-value Element should behave as 0")
	}
	if !e.Add(One()).Equal(One()) {
		t.Fatal("zero-value Element arithmetic broken")
	}
}

func TestRandomDistinct(t *testing.T) {
	a := MustRandom()
	b := MustRandom()
	if a.Equal(b) {
		t.Fatal("two random elements collided (astronomically unlikely)")
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := MustRandom(), MustRandom()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
}

func BenchmarkInv(b *testing.B) {
	x := MustRandom()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Inv(); err != nil {
			b.Fatal(err)
		}
	}
}

// Modulus returns a copy of the field modulus.
func Modulus() *big.Int { return new(big.Int).Set(p) }

// FromBig reduces x mod p.
func FromBig(x *big.Int) Element {
	v := new(big.Int).Mod(x, p)
	return Element{v}
}

// MustRandom is Random with crypto/rand and a panic on failure; entropy
// failure is unrecoverable for callers.
func MustRandom() Element {
	e, err := Random(rand.Reader)
	if err != nil {
		panic(err)
	}
	return e
}

// Neg returns −e mod p.
func (e Element) Neg() Element { return Zero().Sub(e) }

// Equal reports whether e == f.
func (e Element) Equal(f Element) bool { return e.big().Cmp(f.big()) == 0 }
