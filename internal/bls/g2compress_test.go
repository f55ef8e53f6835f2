package bls

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"testing"
)

// The standard compressed encoding of the G2 generator (the BLS public key
// of secret key 1, as pinned by the IETF BLS signature draft and every
// zcash-format library).
const g2GeneratorCompressedHex = "93e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049" +
	"334cf11213945d57e5ac7d055d042b7e024aa2b2f08f0a91260805272dc51051" +
	"c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"

func TestG2CompressedGeneratorKAT(t *testing.T) {
	got := hex.EncodeToString(G2Generator().BytesCompressed())
	if got != g2GeneratorCompressedHex {
		t.Fatalf("generator compressed encoding:\n got %s\nwant %s", got, g2GeneratorCompressedHex)
	}
	raw, _ := hex.DecodeString(g2GeneratorCompressedHex)
	p, err := G2FromCompressedBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(G2Generator()) {
		t.Fatal("decompressed generator mismatch")
	}
}

func TestG2CompressedRoundTrip(t *testing.T) {
	for _, k := range []int64{1, 2, 3, 7, 1000003, 987654321} {
		p := G2Generator().mulRaw(big.NewInt(k))
		for _, q := range []G2{p, p.Neg()} {
			enc := q.BytesCompressed()
			if len(enc) != G2CompressedSize {
				t.Fatalf("encoding is %d bytes", len(enc))
			}
			back, err := G2FromCompressedBytes(enc)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if !back.Equal(q) {
				t.Fatalf("k=%d: round trip mismatch", k)
			}
			// Compressed and uncompressed encodings describe the same point.
			legacy, err := G2FromBytes(q.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !legacy.Equal(back) {
				t.Fatalf("k=%d: compressed and legacy decode disagree", k)
			}
		}
	}
}

func TestG2CompressedInfinity(t *testing.T) {
	enc := g2Infinity().BytesCompressed()
	if enc[0] != g2FlagCompressed|g2FlagInfinity {
		t.Fatalf("infinity flag byte %#x", enc[0])
	}
	for _, b := range enc[1:] {
		if b != 0 {
			t.Fatal("infinity encoding not canonical")
		}
	}
	p, err := G2FromCompressedBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsInfinity() {
		t.Fatal("infinity did not round trip")
	}
}

func TestG2CompressedRejectsMalformed(t *testing.T) {
	good := G2Generator().BytesCompressed()

	short := good[:G2CompressedSize-1]
	if _, err := G2FromCompressedBytes(short); err == nil {
		t.Fatal("short encoding accepted")
	}

	noFlag := append([]byte(nil), good...)
	noFlag[0] &^= g2FlagCompressed
	if _, err := G2FromCompressedBytes(noFlag); err == nil {
		t.Fatal("missing compression flag accepted")
	}

	// An x coordinate off the curve: x = 1 + 0·u gives x³ + 4(1+u) with no
	// square root on the twist for this x.
	offCurve := make([]byte, G2CompressedSize)
	offCurve[0] = g2FlagCompressed
	offCurve[G2CompressedSize-1] = 1 // x.c0 = 1, x.c1 = 0
	if _, err := G2FromCompressedBytes(offCurve); err == nil {
		t.Fatal("off-curve x accepted")
	}

	dirtyInf := make([]byte, G2CompressedSize)
	dirtyInf[0] = g2FlagCompressed | g2FlagInfinity
	dirtyInf[50] = 7
	if _, err := G2FromCompressedBytes(dirtyInf); err == nil {
		t.Fatal("non-canonical infinity accepted")
	}

	signedInf := make([]byte, G2CompressedSize)
	signedInf[0] = g2FlagCompressed | g2FlagInfinity | g2FlagLargestY
	if _, err := G2FromCompressedBytes(signedInf); err == nil {
		t.Fatal("infinity with sign flag accepted")
	}
}

func TestG2CompressedSignFlagSelectsRoot(t *testing.T) {
	p := G2Generator().mulRaw(big.NewInt(5))
	enc := p.BytesCompressed()
	flipped := append([]byte(nil), enc...)
	flipped[0] ^= g2FlagLargestY
	q, err := G2FromCompressedBytes(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Equal(p.Neg()) {
		t.Fatal("flipping the sign flag did not negate the point")
	}
	if bytes.Equal(q.BytesCompressed(), enc) {
		t.Fatal("negated point re-encodes with the same sign flag")
	}
}
