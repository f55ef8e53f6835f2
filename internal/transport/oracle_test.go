package transport

// oracle_test.go covers the outsourced-store boundary between an HSM daemon
// and the provider: the batch messages, and an HSM-side proxy that trusts
// nothing about a reply.

import (
	"bytes"
	"context"
	"crypto/rand"
	"strings"
	"sync"
	"testing"

	"safetypin/internal/securestore"
)

// serveProviderOnly boots a provider daemon with no HSMs behind it.
func serveProviderOnly(t *testing.T) string {
	t.Helper()
	pd, err := NewProviderDaemon(testFleetConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ln, addr, err := Serve("", nil, pd.WireRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); pd.Close() })
	return addr
}

// TestOracleBatchCalls: a batch written over 0x25 is what 0x24 reads
// back, an address holding no block reads as an empty entry, and the
// serving side bounds a batch.
func TestOracleBatchCalls(t *testing.T) {
	addr := serveProviderOnly(t)
	o, err := DialOracle(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.PutMany([]uint64{5, 2, 1}, [][]byte{[]byte("leaf"), []byte("mid"), []byte("root")}); err != nil {
		t.Fatal(err)
	}
	got, err := o.GetMany([]uint64{1, 2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"root", "mid", "", "leaf"} {
		if string(got[i]) != want {
			t.Fatalf("GetMany[%d] = %q, want %q", i, got[i], want)
		}
	}

	c, err := DialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The serving side bounds a batch and wants one block per address.
	_, err = invoke(tctx, c.Call, opOraclePutMany, OracleBatchArgs{HSMID: 2, Addrs: []uint64{8, 9}, Blocks: [][]byte{{1}}})
	if err == nil || !strings.Contains(err.Error(), "2 addresses but 1 blocks") {
		t.Fatalf("mismatched PutMany: %v", err)
	}
	big := make([]uint64, securestore.MaxBatch+1)
	if _, err := invoke(tctx, c.Call, opOraclePutMany, OracleBatchArgs{HSMID: 2, Addrs: big, Blocks: make([][]byte, len(big))}); err == nil {
		t.Fatal("PutMany beyond the batch bound accepted")
	}
	if _, err := invoke(tctx, c.Call, opOracleGetMany, OracleBatchArgs{HSMID: 2, Addrs: big}); err == nil {
		t.Fatal("GetMany beyond the batch bound accepted")
	}
}

// fakeOracleServer answers both oracle tags from one MemOracle, counts
// the calls by tag, and lets a test bend the batch reply.
type fakeOracleServer struct {
	mem    *securestore.MemOracle
	mu     sync.Mutex
	calls  map[byte]int
	doctor func(blocks [][]byte) [][]byte
}

// tally returns the calls by tag so far.
func (f *fakeOracleServer) tally() map[byte]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[byte]int, len(f.calls))
	for tag, n := range f.calls {
		out[tag] = n
	}
	return out
}

func serveFakeOracle(t *testing.T) (*fakeOracleServer, string) {
	t.Helper()
	f := &fakeOracleServer{mem: securestore.NewMemOracle(), calls: make(map[byte]int)}
	count := func(tag byte) {
		f.mu.Lock()
		f.calls[tag]++
		f.mu.Unlock()
	}
	reg := NewRegistry()
	handle(reg, opOracleGetMany, func(ctx context.Context, a OracleBatchArgs) ([][]byte, error) {
		count(MsgOracleGetMany)
		blocks, err := f.mem.GetMany(a.Addrs)
		f.mu.Lock()
		if f.doctor != nil {
			blocks = f.doctor(blocks)
		}
		f.mu.Unlock()
		return blocks, err
	})
	handle(reg, opOraclePutMany, func(ctx context.Context, a OracleBatchArgs) (none, error) {
		count(MsgOraclePutMany)
		return none{}, f.mem.PutMany(a.Addrs, a.Blocks)
	})
	ln, addr, err := Serve("", nil, reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return f, addr
}

// TestRemoteOracleSpeaksOnlyBatchTags: a store over RemoteOracle sets up,
// reads and deletes with 0x24/0x25 alone (the fake serves no other tag) —
// ⌈511/256⌉ exchanges to provision 511 nodes, one per read, two per
// delete.
func TestRemoteOracleSpeaksOnlyBatchTags(t *testing.T) {
	f, addr := serveFakeOracle(t)
	o, err := DialOracle(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 256)
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	s, err := securestore.Setup(o, data, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls := f.tally(); calls[MsgOraclePutMany] != 2 || calls[MsgOracleGetMany] != 0 {
		t.Fatalf("Setup of 511 nodes: %v", calls)
	}
	if got, err := s.Read(200); err != nil || !bytes.Equal(got, data[200]) {
		t.Fatalf("Read over the wire: %x, %v", got, err)
	}
	if n, err := s.DeleteMany([]int{3, 200, 201, 255}); err != nil || n != 4 {
		t.Fatalf("DeleteMany over the wire: %d, %v", n, err)
	}
	if err := s.Delete(10); err != nil {
		t.Fatal(err)
	}
	if calls := f.tally(); calls[MsgOracleGetMany] != 3 || calls[MsgOraclePutMany] != 4 {
		t.Fatalf("calls by tag after read and two deletes: %v", calls)
	}
}

// TestRemoteOracleRejectsMiscountedReply: the provider is the adversary. A
// reply with an entry missing or one too many never reaches the store.
func TestRemoteOracleRejectsMiscountedReply(t *testing.T) {
	f, addr := serveFakeOracle(t)
	o, err := DialOracle(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.PutMany([]uint64{1, 2, 3}, [][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	for name, doctor := range map[string]func([][]byte) [][]byte{
		"truncated": func(b [][]byte) [][]byte { return b[:len(b)-1] },
		"extra":     func(b [][]byte) [][]byte { return append(b, []byte{9}) },
		"empty":     func([][]byte) [][]byte { return nil },
	} {
		f.mu.Lock()
		f.doctor = doctor
		f.mu.Unlock()
		if got, err := o.GetMany([]uint64{1, 2, 3}); err == nil {
			t.Fatalf("%s reply accepted: %v", name, got)
		}
	}
	f.mu.Lock()
	f.doctor = nil
	f.mu.Unlock()
	if got, err := o.GetMany([]uint64{1, 2, 3}); err != nil || len(got) != 3 || got[2][0] != 3 {
		t.Fatalf("honest reply after the doctored ones: %v, %v", got, err)
	}
}
