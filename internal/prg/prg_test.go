package prg

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := Bytes("test", []byte("seed"), 1024)
	b := Bytes("test", []byte("seed"), 1024)
	if !bytes.Equal(a, b) {
		t.Fatal("same label+seed produced different streams")
	}
}

func TestLabelSeparation(t *testing.T) {
	a := Bytes("label-a", []byte("seed"), 64)
	b := Bytes("label-b", []byte("seed"), 64)
	if bytes.Equal(a, b) {
		t.Fatal("different labels produced identical streams")
	}
}

func TestSeedSeparation(t *testing.T) {
	a := Bytes("label", []byte("seed-1"), 64)
	b := Bytes("label", []byte("seed-2"), 64)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestReadChunkingInvariance(t *testing.T) {
	// Reading the stream in different chunk sizes must yield the same bytes.
	whole := Bytes("chunk", []byte("s"), 257)
	g := New("chunk", []byte("s"))
	var got []byte
	for _, sz := range []int{1, 2, 3, 5, 7, 11, 13, 31, 64, 120} {
		buf := make([]byte, sz)
		g.Read(buf)
		got = append(got, buf...)
	}
	if !bytes.Equal(whole[:len(got)], got) {
		t.Fatal("chunked reads diverge from contiguous read")
	}
}

func TestIntnBounds(t *testing.T) {
	g := New("bounds", []byte("s"))
	for _, n := range []int{1, 2, 3, 10, 100, 1 << 20} {
		for i := 0; i < 100; i++ {
			v := g.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New("p", nil).Intn(0)
}

func TestIndicesDistinctAndInRange(t *testing.T) {
	err := quick.Check(func(seed []byte, nRaw, totalRaw uint8) bool {
		total := int(totalRaw%100) + 1
		n := int(nRaw) % (total + 1)
		idx, err := Indices("quick", seed, n, total)
		if err != nil {
			return false
		}
		if len(idx) != n {
			return false
		}
		seen := map[int]bool{}
		for _, v := range idx {
			if v < 0 || v >= total || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndicesDeterministic(t *testing.T) {
	a, _ := Indices("sel", []byte("pin+salt"), 40, 3100)
	b, _ := Indices("sel", []byte("pin+salt"), 40, 3100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("index selection not deterministic")
		}
	}
}

func TestIndicesErrors(t *testing.T) {
	if _, err := Indices("e", nil, 5, 4); err == nil {
		t.Fatal("expected error when n > total")
	}
	if _, err := Indices("e", nil, -1, 4); err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestIndicesFullRange(t *testing.T) {
	idx, err := Indices("full", []byte("x"), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range idx {
		seen[v] = true
	}
	if len(seen) != 16 {
		t.Fatalf("expected a permutation of 16 indices, got %d distinct", len(seen))
	}
}

func TestUniformity(t *testing.T) {
	// Coarse chi-square-ish check: each bucket of Intn(8) should receive
	// roughly 1/8 of the draws.
	g := New("uniform", []byte("s"))
	const draws = 80000
	var counts [8]int
	for i := 0; i < draws; i++ {
		counts[g.Intn(8)]++
	}
	for b, c := range counts {
		if c < draws/8-draws/80 || c > draws/8+draws/80 {
			t.Fatalf("bucket %d count %d deviates from expected %d", b, c, draws/8)
		}
	}
}

func BenchmarkPRGRead1K(b *testing.B) {
	g := New("bench", []byte("seed"))
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		g.Read(buf)
	}
}

func BenchmarkIndices40of3100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Indices("bench", []byte("seed"), 40, 3100); err != nil {
			b.Fatal(err)
		}
	}
}

// Bytes returns length pseudorandom bytes derived from (label, seed).
func Bytes(label string, seed []byte, length int) []byte {
	b := make([]byte, length)
	New(label, seed).Read(b)
	return b
}
