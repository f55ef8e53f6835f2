package meter

import "sync"

// Op identifies a primitive operation class. The set mirrors the rows of
// Tables 2 and 7.
type Op string

const (
	// OpECMul is a NIST P-256 point multiplication (the paper's g^x).
	OpECMul Op = "ec_mul"
	// OpElGamalDecrypt is a hashed-ElGamal decryption.
	OpElGamalDecrypt Op = "elgamal_decrypt"
	// OpPairing is a full BLS12-381 pairing evaluation (one Miller loop
	// plus one final exponentiation).
	OpPairing Op = "pairing"
	// OpMillerLoop is one Miller loop of a multi-pairing. An n-pair
	// product costs n Miller loops sharing one squaring chain, so the
	// HSM's commit check meters as 2×OpMillerLoop + 1×OpResidueCheck
	// rather than 2×OpPairing.
	OpMillerLoop Op = "miller_loop"
	// OpResidueCheck is what a residue witness costs on top of the Miller
	// loops it replaces the final exponentiation of: the witness folded
	// into the loop (five Fp12 products), one Frobenius, one more product
	// and a test for membership in Fp6*.
	OpResidueCheck Op = "residue_check"
	// OpBLSSign is a G1 hash-and-multiply signature.
	OpBLSSign Op = "bls_sign"
	// OpG2Add is one G2 point addition of the per-epoch roster
	// aggregation (batch-affine summation unit): an n-signer aggregate
	// verification charges n−1 of these on top of its pairing work.
	OpG2Add Op = "g2_add"
	// OpCofactorClear is one G1 cofactor clearing, [1 − x]τ (63
	// doublings): the HSM's proof that the aggregate signature it parses
	// off the wire lies in G1, from the provider's preimage τ, in place of
	// the endomorphism membership test (126 doublings).
	OpCofactorClear Op = "cofactor_clear"
	// OpAES32 is an AES-128 operation over a 32-byte chunk (Table 7 unit).
	OpAES32 Op = "aes_32b"
	// OpHMAC is an HMAC-SHA256 over a small input.
	OpHMAC Op = "hmac"
	// OpFlashRead32 is a 32-byte read from device flash.
	OpFlashRead32 Op = "flash_read_32b"
	// OpIORoundTrip is one host↔HSM request/response exchange.
	OpIORoundTrip Op = "io_round_trip"
	// OpIOByte is one byte moved across the host↔HSM link.
	OpIOByte Op = "io_byte"
)

// Meter accumulates operation counts. It is safe for concurrent use. The
// zero value is ready; a nil *Meter discards all counts.
type Meter struct {
	mu     sync.Mutex
	counts map[Op]int64
}

// New returns an empty meter.
func New() *Meter { return &Meter{} }

// Add records n occurrences of op. Safe on a nil receiver.
func (m *Meter) Add(op Op, n int64) {
	if m == nil || n == 0 {
		return
	}
	m.mu.Lock()
	if m.counts == nil {
		m.counts = make(map[Op]int64)
	}
	m.counts[op] += n
	m.mu.Unlock()
}

// Snapshot returns a copy of all counts.
func (m *Meter) Snapshot() map[Op]int64 {
	out := make(map[Op]int64)
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counts {
		out[k] = v
	}
	return out
}

// Reset zeroes all counts.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counts = make(map[Op]int64)
	m.mu.Unlock()
}

// AESChunks returns the number of 32-byte AES chunk operations needed to
// process n bytes (minimum one for any non-empty input).
func AESChunks(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + 31) / 32)
}
