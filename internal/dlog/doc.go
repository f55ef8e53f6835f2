// Package dlog implements SafetyPin's distributed append-only log
// (Section 6): the service provider stores the full log, HSMs store only a
// digest, and every epoch the provider proves — to randomly chosen auditors,
// in O(λ/N)-per-HSM work — that the new digest extends the old one.
//
// One epoch proceeds as in Figure 5:
//
//  1. The provider batches client insertions, splits them into numChunks
//     chunks, applies them chunk by chunk, and records per-chunk
//     (d_{i-1}, d_i, π_i) extension records.
//  2. It commits the record sequence under a Merkle root R.
//  3. Each HSM audits a subset of chunks: extension proofs verify, records
//     sit under R at the claimed index, adjacent records chain together,
//     chunk 0 starts at the HSM's current digest, and the last chunk ends at
//     the claimed new digest. If all checks pass the HSM signs (d, d′, R).
//  4. The provider aggregates the signatures, listing the signers in
//     ascending order; each HSM accepts d′ once the aggregate verifies
//     under a sufficient quorum of the fleet's keys. Each HSM takes the
//     quorum key from its roster cache, with the members in roster order.
//
// Chunk selection is either private-random (each HSM samples its own
// indices) or deterministic from PRF(R, hsmID) (Appendix B.3), which lets
// surviving HSMs recompute — and take over — a failed HSM's audit duty.
//
// Provided at least one honest HSM audits every chunk (overwhelmingly likely
// once (1−2·f_secret)·N·C ≫ N·ln N, the paper's analysis), a provider that
// mutates or drops an existing log entry cannot gather a valid quorum: the
// forged chunk's extension proof cannot exist, so honest auditors refuse to
// sign.
package dlog
