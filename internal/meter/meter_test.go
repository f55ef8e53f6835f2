package meter

import (
	"sync"
	"testing"
)

func TestNilMeterSafe(t *testing.T) {
	var m *Meter
	m.Add(OpECMul, 5)
	if m.Get(OpECMul) != 0 {
		t.Fatal("nil meter returned non-zero count")
	}
	if len(m.Snapshot()) != 0 {
		t.Fatal("nil meter snapshot not empty")
	}
	m.Reset()
}

func TestAddGet(t *testing.T) {
	m := New()
	m.Add(OpAES32, 10)
	m.Add(OpAES32, 5)
	m.Add(OpPairing, 1)
	if m.Get(OpAES32) != 15 {
		t.Fatalf("got %d want 15", m.Get(OpAES32))
	}
	if m.Get(OpPairing) != 1 {
		t.Fatal("pairing count wrong")
	}
	if m.Get(OpECMul) != 0 {
		t.Fatal("unset op should be zero")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := New()
	m.Add(OpHMAC, 3)
	s := m.Snapshot()
	s[OpHMAC] = 99
	if m.Get(OpHMAC) != 3 {
		t.Fatal("snapshot mutation affected meter")
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.Add(OpECMul, 2)
	m.Reset()
	if m.Get(OpECMul) != 0 {
		t.Fatal("reset did not clear counts")
	}
}

func TestConcurrentAdds(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add(OpIOByte, 1)
			}
		}()
	}
	wg.Wait()
	if m.Get(OpIOByte) != 8000 {
		t.Fatalf("lost updates: %d", m.Get(OpIOByte))
	}
}

func TestAESChunks(t *testing.T) {
	cases := map[int]int64{0: 0, -5: 0, 1: 1, 32: 1, 33: 2, 64: 2, 65: 3}
	for n, want := range cases {
		if got := AESChunks(n); got != want {
			t.Fatalf("AESChunks(%d) = %d, want %d", n, got, want)
		}
	}
}

// Get returns the count for op.
func (m *Meter) Get(op Op) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[op]
}
