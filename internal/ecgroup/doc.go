// Package ecgroup wraps the NIST P-256 elliptic-curve group behind a small
// value-oriented API: scalars in Z_q (q the group order) and points with
// canonical compressed encodings.
//
// SafetyPin performs its public-key operations other than the log's BLS
// multisignatures — hashed-ElGamal encryption of key shares (§A.4) and
// Bloom-filter-encryption positions (§7.1) — on P-256, matching the
// paper's implementation ("Other public-key operations use NIST P256
// curve", Table 7).
package ecgroup
