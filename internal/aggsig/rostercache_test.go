package aggsig

// Differential property tests for RosterCache: the subtract-missing-
// signers quorum key must be byte-identical to the from-scratch
// AggregateKeys MSM for every signer subset, across roster generations,
// and the cached path must amortize — the acceptance bar is ≥5× over the
// full-MSM path at n=1024 with ≤8 missing signers (BenchmarkQuorumKey*).

import (
	"errors"
	mrand "math/rand"
	"slices"
	"sync"
	"testing"
)

// QuorumKeyNaive aggregates the signer subset, in roster order, from
// scratch (the full-MSM path for BLS): the differential oracle and
// benchmark baseline for QuorumKey.
func (c *RosterCache) QuorumKeyNaive(signers []int) (PublicKey, error) {
	if len(signers) == 0 {
		return nil, errors.New("aggsig: empty signer set")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	missing, err := c.missingFrom(signers)
	if err != nil {
		return nil, err
	}
	var pks []PublicKey
	for i, pk := range c.roster {
		if !slices.Contains(missing, i) {
			pks = append(pks, pk)
		}
	}
	return AggregateKeys(pks)
}

// rosterKeys generates n roster keys.
func rosterKeys(tb testing.TB, n int) []PublicKey {
	_, pks := keyGen(tb, n)
	return pks
}

// signersWithout returns 0..n−1 minus the given missing set.
func signersWithout(n int, missing map[int]bool) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !missing[i] {
			out = append(out, i)
		}
	}
	return out
}

func assertQuorumMatchesNaive(t *testing.T, c *RosterCache, signers []int) {
	t.Helper()
	fast, err := c.QuorumKey(signers)
	if err != nil {
		t.Fatalf("QuorumKey(%d signers): %v", len(signers), err)
	}
	naive, err := c.QuorumKeyNaive(signers)
	if err != nil {
		t.Fatalf("QuorumKeyNaive(%d signers): %v", len(signers), err)
	}
	if string(fast.Bytes()) != string(naive.Bytes()) {
		t.Fatalf("quorum key for %d signers differs from a from-scratch aggregation", len(signers))
	}
}

// TestQuorumKeyDifferential: the subtracted, remembered and direct paths
// give exactly the key a from-scratch aggregation does.
func TestQuorumKeyDifferential(t *testing.T) {
	t.Run(Name, func(t *testing.T) {
		const n = 24
		c := NewRosterCache(nil)
		c.SetRoster(rosterKeys(t, n))

		// None missing: the quorum key IS the cached full aggregate.
		assertQuorumMatchesNaive(t, c, signersWithout(n, nil))
		full, fullBytes, err := c.FullAggregate()
		if err != nil {
			t.Fatal(err)
		}
		if string(full.Bytes()) != string(fullBytes) {
			t.Fatal("cached serialized form differs from the cached key")
		}
		qk, err := c.QuorumKey(signersWithout(n, nil))
		if err != nil {
			t.Fatal(err)
		}
		if string(qk.Bytes()) != string(fullBytes) {
			t.Fatal("complete signer set should return the full aggregate")
		}

		// Single missing, threshold boundary (half missing, the subtract/
		// direct crossover on both sides), and all-but-one missing.
		for _, m := range []int{1, n/2 - 1, n / 2, n/2 + 1, n - 1} {
			missing := map[int]bool{}
			for i := 0; i < m; i++ {
				missing[i] = true
			}
			assertQuorumMatchesNaive(t, c, signersWithout(n, missing))
		}

		// All missing: an empty signer set is an error on both paths.
		if _, err := c.QuorumKey(nil); err == nil {
			t.Fatal("empty signer set accepted by QuorumKey")
		}
		if _, err := c.QuorumKeyNaive(nil); err == nil {
			t.Fatal("empty signer set accepted by QuorumKeyNaive")
		}

		// Random missing sets, repeated epochs against the same cached
		// aggregate (the steady-state the cache exists for).
		rng := mrand.New(mrand.NewSource(7))
		for epoch := 0; epoch < 20; epoch++ {
			missing := map[int]bool{}
			for i := 0; i < n; i++ {
				if rng.Intn(4) == 0 {
					missing[i] = true
				}
			}
			if len(missing) == n {
				delete(missing, 0)
			}
			// Listed in a random order: the key is the set's.
			signers := signersWithout(n, missing)
			rng.Shuffle(len(signers), func(i, j int) { signers[i], signers[j] = signers[j], signers[i] })
			assertQuorumMatchesNaive(t, c, signers)
		}

		// Bad signer sets are rejected.
		for _, bad := range [][]int{{-1}, {n}, {0, 0}} {
			if _, err := c.QuorumKey(bad); err == nil {
				t.Fatalf("bad signer set %v accepted", bad)
			}
		}
	})
}

func TestRosterCacheGenerationInvalidation(t *testing.T) {
	c := NewRosterCache(nil)
	keys := rosterKeys(t, 6)
	c.SetRoster(keys[:5])
	gen := c.Generation()
	_, before, err := c.FullAggregate()
	if err != nil {
		t.Fatal(err)
	}

	// A registration landing after the aggregate is built must bump the
	// generation and invalidate: the next aggregate includes the new key.
	c.AppendKey(keys[5])
	if c.Generation() <= gen {
		t.Fatal("AppendKey did not bump the roster generation")
	}
	_, after, err := c.FullAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) == string(after) {
		t.Fatal("aggregate not invalidated by mid-stream registration")
	}
	fresh := NewRosterCache(nil)
	fresh.SetRoster(keys)
	_, want, err := fresh.FullAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(want) {
		t.Fatal("rebuilt aggregate differs from from-scratch aggregation")
	}

	// SetRoster also bumps, and quorum keys follow the new roster.
	genBefore := c.Generation()
	c.SetRoster(keys[:4])
	if c.Generation() <= genBefore {
		t.Fatal("SetRoster did not bump the roster generation")
	}
	assertQuorumMatchesNaive(t, c, []int{0, 1, 2})
}

// TestQuorumKeyMemo pins the one-entry memo: a repeated missing set returns
// the remembered key object (so its prepared pairing lines are reused),
// every other request behaves as it did before the memo, and no roster
// mutation can leave a stale key behind.
func TestQuorumKeyMemo(t *testing.T) {
	const n = 12
	keys := rosterKeys(t, n+1)
	c := NewRosterCache(nil)
	c.SetRoster(keys[:n])
	quorum := func(signers []int) PublicKey {
		t.Helper()
		assertQuorumMatchesNaive(t, c, signers)
		k, err := c.QuorumKey(signers)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	same := func(a, b PublicKey) bool { return a.pk == b.pk }

	missA := signersWithout(n, map[int]bool{2: true, 9: true})
	first := quorum(missA)
	if !same(first, quorum(missA)) {
		t.Fatal("repeated missing set did not return the remembered key")
	}
	// The same set listed in another order is the same set.
	reversed := make([]int, len(missA))
	for i, s := range missA {
		reversed[len(missA)-1-i] = s
	}
	if !same(first, quorum(reversed)) {
		t.Fatal("signer order changed the memo key")
	}

	// A different missing set replaces the entry; coming back rebuilds.
	missB := signersWithout(n, map[int]bool{2: true, 5: true})
	second := quorum(missB)
	if same(first, second) {
		t.Fatal("a different missing set returned the remembered key")
	}
	if same(first, quorum(missA)) {
		t.Fatal("the memo holds more than one entry")
	}

	// The complete set and the > n/2-missing direct path bypass the memo
	// and leave it in place.
	held := quorum(missA)
	full, _, err := c.FullAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !same(full, quorum(signersWithout(n, nil))) {
		t.Fatal("complete signer set should return the cached full aggregate")
	}
	quorum([]int{0, 1, 2})
	if !same(held, quorum(missA)) {
		t.Fatal("a bypassing request evicted the memo")
	}

	// AppendKey and SetRoster drop the entry: the same index set now
	// names a different quorum, and its key is rebuilt from the new roster.
	c.AppendKey(keys[n])
	if c.memoKey != nil {
		t.Fatal("AppendKey left a memo entry behind")
	}
	grown := quorum(missA) // member n is now missing too
	if same(held, grown) || string(held.Bytes()) != string(grown.Bytes()) {
		t.Fatal("after AppendKey the same signers must give an equal key from a fresh subtraction")
	}
	withNew := quorum(append(append([]int(nil), missA...), n))
	if string(withNew.Bytes()) == string(held.Bytes()) {
		t.Fatal("quorum including the appended member equals the stale key")
	}
	c.SetRoster(keys[1 : n+1])
	if c.memoKey != nil {
		t.Fatal("SetRoster left a memo entry behind")
	}
	if string(quorum(missA).Bytes()) == string(held.Bytes()) {
		t.Fatal("quorum key did not follow the replaced roster")
	}
}

// TestSharedCacheFirstVerifyRace has a whole in-process fleet share one
// pre-warmed cache and race the first verification against the quorum key
// (run under -race): every goroutine must get the remembered key and a
// correct verdict while one of them prepares the key's pairing lines.
func TestSharedCacheFirstVerifyRace(t *testing.T) {
	const n = 8
	signers, pks := keyGen(t, n)
	c := NewRosterCache(nil)
	c.SetRoster(pks)
	if _, _, err := c.FullAggregate(); err != nil {
		t.Fatal(err)
	}
	live := signersWithout(n, map[int]bool{3: true})
	msg := []byte("epoch header")
	sigs := make([][]byte, 0, len(live))
	for _, i := range live {
		sig, err := signers[i].Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
	}
	agg, err := Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	const hsms = 128
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < hsms; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			apk, err := c.QuorumKey(live)
			if err != nil {
				t.Error(err)
				return
			}
			if ok, err := VerifyWithKey(apk, HashMessage(msg), agg); err != nil || !ok {
				t.Errorf("valid aggregate rejected: ok=%v err=%v", ok, err)
			}
			if ok, err := VerifyWithKey(apk, HashMessage([]byte("another header")), agg); err != nil || ok {
				t.Errorf("aggregate accepted for another message: ok=%v err=%v", ok, err)
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestQuorumKeyRosterOrder: signers listed in any order get the key of
// their set, on the subtracted path as on the direct one, so a commit's
// signer order cannot change the key it is checked against.
func TestQuorumKeyRosterOrder(t *testing.T) {
	const n = 8
	keys := rosterKeys(t, n)
	c := NewRosterCache(nil)
	c.SetRoster(keys)
	for _, signers := range [][]int{{6, 1, 4, 0, 3, 7}, {5, 2, 0}} { // subtracted, direct
		got, err := c.QuorumKey(signers)
		if err != nil {
			t.Fatal(err)
		}
		ordered := slices.Clone(signers)
		slices.Sort(ordered)
		pks := make([]PublicKey, len(ordered))
		for i, s := range ordered {
			pks[i] = keys[s]
		}
		want, err := AggregateKeys(pks)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Bytes()) != string(want.Bytes()) {
			t.Fatalf("signers %v: quorum key is not their set's", signers)
		}
	}
}

// TestRosterCacheRepeatedKey: a roster that repeats a key has no
// aggregate, so a quorum key over both copies fails closed on every path
// instead of counting one signer twice.
func TestRosterCacheRepeatedKey(t *testing.T) {
	keys := rosterKeys(t, 6)
	keys[5] = keys[1]
	c := NewRosterCache(nil)
	c.SetRoster(keys)
	if _, _, err := c.FullAggregate(); err == nil {
		t.Fatal("aggregate over a repeated key built")
	}
	// Complete, subtracted and direct paths.
	for _, signers := range [][]int{{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 5}, {1, 5}} {
		if _, err := c.QuorumKey(signers); err == nil {
			t.Fatalf("quorum key for %v over a repeated key built", signers)
		}
	}
}

// benchRoster is shared by the quorum-key benchmarks: 1024 keys is the
// ISSUE's acceptance shape, with 8 missing signers.
func benchQuorum(b *testing.B, n, missing int) (*RosterCache, []int) {
	b.Helper()
	c := NewRosterCache(nil)
	c.SetRoster(rosterKeys(b, n))
	m := map[int]bool{}
	for i := 0; i < missing; i++ {
		m[i*7%n] = true
	}
	signers := signersWithout(n, m)
	// Pre-build the full aggregate: the steady state being measured is
	// the per-epoch cost, not the once-per-generation build.
	if _, _, err := c.FullAggregate(); err != nil {
		b.Fatal(err)
	}
	return c, signers
}

// BenchmarkQuorumKeyCached1024 is the cost of a changed missing set: 8
// missing signers from a 1024-HSM roster, subtracted from the cached full
// aggregate. It alternates two sets so the one-entry memo never hits.
func BenchmarkQuorumKeyCached1024(b *testing.B) {
	c, signers := benchQuorum(b, 1024, 8)
	sets := [2][]int{signers, signers[1:]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.QuorumKey(sets[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuorumKeyFullMSM1024 is the retained from-scratch path: the
// O(n) MSM every epoch used to pay.
func BenchmarkQuorumKeyFullMSM1024(b *testing.B) {
	c, signers := benchQuorum(b, 1024, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.QuorumKeyNaive(signers); err != nil {
			b.Fatal(err)
		}
	}
}
