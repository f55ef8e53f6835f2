package bls

// scalarmul_ct_test.go drives G1.MulSecret differentially against the
// GLV path across the exceptional-case boundary: zero and tiny scalars
// (the accumulator-at-infinity and digit-zero fixups), scalars with long
// runs of zero windows, r−1, and random scalars.

import (
	"go/ast"
	"math/big"
	"math/rand"
	"testing"
)

func TestG1MulSecretDifferential(t *testing.T) {
	g := G1Generator()
	h := hashToG1RFC("mulsecret-test", []byte("base"))
	rng := rand.New(rand.NewSource(0x5afe))

	scalars := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		big.NewInt(17),
		big.NewInt(255),
		new(big.Int).Sub(Order(), big.NewInt(1)), // r − 1 = −1 mod r
		new(big.Int).Sub(Order(), big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 200),       // long zero-window tail
		new(big.Int).SetBit(big.NewInt(3), 252, 1), // leading digit + gap
	}
	for i := 0; i < 40; i++ {
		k := new(big.Int).Rand(rng, Order())
		scalars = append(scalars, k)
	}

	// The table build batch-normalizes d·P: drive a base already in affine
	// form (Z = 1, skipped by the batch) and one with Z ≠ 1.
	proj := h.Add(g).double()
	if !g.z.equal(&feR) || proj.z.equal(&feR) {
		t.Fatal("test bases do not cover both Z = 1 and Z ≠ 1")
	}

	for _, p := range []G1{g, h, proj} {
		for _, k := range scalars {
			want := p.Mul(k)
			got := p.MulSecret(k)
			if !want.Equal(got) {
				t.Fatalf("MulSecret(%v) disagrees with Mul: want %x got %x", k, want.Bytes(), got.Bytes())
			}
		}
	}
}

// TestG1MulSecretShape restates MulSecret's constant-time structure on the
// source: the point formulas under the walk are branch-free (masked
// fix-ups only), and inside MulSecret nothing derived from the scalar
// bytes — the window digit, the scanned entry, the accumulator — reaches a
// branch condition or an index; the table is only ever indexed by the
// public scan counter. (The range guard on k itself is ctsecret's to
// police: it carries the justified suppressions.)
func TestG1MulSecretShape(t *testing.T) {
	files := []string{"scalarmul_ct.go"}
	assertBranchFree(t, files, "g1CMov", "g1DoubleCT", "g1AddMixedCT")

	fset, fns := parseFuncs(t, files, "MulSecret")
	secret := map[string]bool{"digit": true, "kb": true, "qx": true, "qy": true, "acc": true, "m": true}
	mentionsSecret := func(e ast.Expr) (name string) {
		if e == nil {
			return ""
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && secret[id.Name] {
				name = id.Name
			}
			return name == ""
		})
		return name
	}
	calls := map[string]int{}
	ast.Inspect(fns["MulSecret"].Body, func(n ast.Node) bool {
		var where string
		var e ast.Expr
		switch n := n.(type) {
		case *ast.IfStmt:
			where, e = "if condition", n.Cond
		case *ast.ForStmt:
			where, e = "loop condition", n.Cond
		case *ast.SwitchStmt:
			where, e = "switch tag", n.Tag
		case *ast.IndexExpr:
			where, e = "index", n.Index
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				calls[fun.Name]++
			case *ast.SelectorExpr:
				calls[fun.Sel.Name]++
			}
		}
		if name := mentionsSecret(e); name != "" {
			t.Errorf("%s: %s depends on %s", fset.Position(n.Pos()), where, name)
		}
		return true
	})
	if calls["feCMov"] != 2 {
		t.Errorf("MulSecret has %d feCMov scan calls, want 2 (x and y of every table entry)", calls["feCMov"])
	}
	// One field inversion: the batch normalization of the table, and no
	// per-entry affine conversion beside it.
	if calls["g1NormalizeBatch"] != 1 || calls["affine"]+calls["feInv"]+calls["feBatchInv"] != 0 {
		t.Errorf("MulSecret must invert exactly once, through g1NormalizeBatch: calls %v", calls)
	}
}

// TestG1MulSecretOutOfRange covers the vartime pre-reduction contract
// for negative and ≥ r scalars.
func TestG1MulSecretOutOfRange(t *testing.T) {
	g := G1Generator()
	cases := []*big.Int{
		new(big.Int).Neg(big.NewInt(7)),
		Order(),
		new(big.Int).Add(Order(), big.NewInt(5)),
		new(big.Int).Mul(Order(), big.NewInt(3)),
	}
	for _, k := range cases {
		want := g.Mul(k)
		got := g.MulSecret(k)
		if !want.Equal(got) {
			t.Fatalf("MulSecret(%v) out-of-range: want %x got %x", k, want.Bytes(), got.Bytes())
		}
	}
}

// TestG1MulSecretInfinity checks the identity base point short-circuit.
func TestG1MulSecretInfinity(t *testing.T) {
	inf := g1Infinity()
	if got := inf.MulSecret(big.NewInt(42)); !got.IsInfinity() {
		t.Fatalf("MulSecret on infinity returned a finite point")
	}
}

// TestSignUsesConstantTimePath pins the signature bytes across the
// Mul → MulSecret routing change: same key, same message, same bytes.
func TestSignUsesConstantTimePath(t *testing.T) {
	g := hashToG1RFC("sign-ct", []byte("msg"))
	k := new(big.Int).SetInt64(0x1234_5678_9abc)
	if !g.Mul(k).Equal(g.MulSecret(k)) {
		t.Fatal("CT and vartime scalar multiplication disagree on the signing shape")
	}
}

func BenchmarkG1MulSecret(b *testing.B) {
	g := G1Generator()
	rng := rand.New(rand.NewSource(9))
	k := new(big.Int).Rand(rng, Order())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.MulSecret(k)
	}
}
