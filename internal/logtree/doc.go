// Package logtree implements the authenticated dictionary underlying
// SafetyPin's distributed log (§6.1, Appendix B.2).
//
// The service provider stores the full log — a list of identifier→value
// pairs in which each identifier appears at most once — while HSMs hold only
// a constant-size digest. The provider can produce:
//
//   - inclusion proofs: (id, val) is in the log with digest d,
//   - absence proofs: id is undefined in the log with digest d,
//   - extension proofs: digest d′ represents the log with digest d plus a
//     given batch of fresh insertions (the append-only property).
//
// Nissim–Naor build this from a Merkle binary search tree; we use the
// equivalent canonical structure that avoids rebalancing entirely: a
// path-compressed binary Merkle trie ("Patricia trie") keyed by H(id). The
// shape of the trie is a pure function of the key set, so an extension proof
// is simply the search path for the new key — the verifier re-executes the
// insertion on that path and obtains the unique new digest.
//
// The provider's Tree is persistent: an insertion copies the O(log n)
// branches on its search path instead of mutating them, so Clone is O(1)
// and an epoch staged on a clone costs O(batch · log n), whatever the
// log's length.
//
// Soundness rests on collision resistance of SHA-256 and on the audit
// protocol in package dlog: every accepted digest is reached from the empty
// digest through verified single-insertion steps, which keeps the committed
// trie canonical, and in a canonical trie the search path for an id is
// unique, so no provider can prove absence of a present id (or re-prove a
// different value for it).
package logtree
