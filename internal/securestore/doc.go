// Package securestore implements outsourced storage with secure deletion
// (Section 7.2, Appendix C), after Di Crescenzo et al.
//
// An HSM wants to keep a data array far larger than its internal memory —
// in SafetyPin, the multi-megabyte Bloom-filter-encryption secret key — on
// the untrusted service provider, while retaining the ability to *securely
// delete* individual blocks: after a delete, even an attacker who later
// extracts the HSM's entire internal state and holds every ciphertext the
// provider ever saw learns nothing about the deleted block.
//
// The construction is a binary tree of symmetric keys. Every node holds a
// fresh AES key; each node's ciphertext (stored at the provider) contains
// its children's keys, and each leaf's ciphertext contains the data block.
// The HSM stores only the root key. Deleting block i re-keys the path from
// leaf i to the root, dropping the deleted leaf's key and replacing the root
// key — O(log D) symmetric operations, versus re-encrypting the whole array
// (the ablation the paper reports as a 4423× slowdown).
//
// Node addresses are public, so the store asks its Oracle for whole paths
// at once: one exchange loads the union of the paths an operation needs,
// one more writes the re-keyed nodes back, whatever the tree height and
// however many leaves the operation covers (ReadMany, DeleteMany), and
// ReadDelete lets its caller look at the leaves between the two.
package securestore
