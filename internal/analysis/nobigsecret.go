package analysis

// nobigsecret.go statically verifies the claim in internal/bls/doc.go
// that math/big never appears in the limb-arithmetic hot paths nor under
// a secret scalar: inside any package named bls, the field-kernel files
// (fp*.go), the constant-time hash-to-curve files (sswu.go, isogeny.go,
// pairing.go) and the secret-scalar files (scalar.go, the Scalar type;
// scalarmul_ct.go, the signing walk; g2_ct.go, the keygen comb) must not
// import math/big. The files that still use it on public values —
// curve.go (cofactor clearing), glv.go (deriving β once), and the API
// boundary files — are outside the deny set.

import (
	"strconv"
	"strings"
)

// NoBigSecret bans math/big from the bls limb-arithmetic hot-path files.
var NoBigSecret = &Analyzer{
	Name: "nobigsecret",
	Doc: "ban math/big imports in bls limb-arithmetic hot-path and " +
		"secret-scalar files (fp*.go, sswu.go, isogeny.go, pairing.go, " +
		"scalar.go, scalarmul_ct.go, g2_ct.go)",
	Run: runNoBigSecret,
}

// hotPathFile reports whether a bls file basename is in the math/big
// deny set.
func hotPathFile(base string) bool {
	switch base {
	case "sswu.go", "isogeny.go", "pairing.go", "scalar.go", "scalarmul_ct.go", "g2_ct.go":
		return true
	}
	return strings.HasPrefix(base, "fp") && strings.HasSuffix(base, ".go")
}

func runNoBigSecret(pass *Pass) {
	if pass.Pkg.Name != "bls" {
		return
	}
	for _, file := range pass.Pkg.Files {
		base := pass.filename(file.Package)
		if !hotPathFile(base) {
			continue
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "math/big" {
				continue
			}
			pass.Reportf(imp.Pos(), "math/big imported in limb-arithmetic hot path %s: field kernels and secret scalars must stay on fixed-width limb arithmetic (see bls/doc.go)", base)
		}
	}
}
