// Package bfe implements Bloom-filter encryption — the puncturable
// public-key encryption scheme SafetyPin uses for forward secrecy
// (Section 7) — in the paper's pairing-free variant: the public key is an
// array of M hashed-ElGamal public keys (one per Bloom-filter position) and
// the secret key is the matching array of M scalars.
//
// Encryption picks a tag, derives K positions from it, and encrypts the
// message to each position's public key under one shared nonce; any one
// unpunctured position decrypts. The ciphertext is tag ‖ R ‖ K equal-length
// boxes (layout v2, docs/MIGRATION.md). Puncturing a ciphertext *securely
// deletes* the K scalars at its positions, after which that ciphertext (and
// any other ciphertext whose positions are all deleted — the Bloom
// false-positive case, folded into the system's fault-tolerance budget
// f_live) can never be decrypted again, even by an attacker who captures the
// HSM afterwards.
//
// The M-scalar secret key is far larger than HSM memory, so it lives in the
// provider-hosted outsourced store of package securestore, which provides
// exactly the delete-and-forget semantics puncturing needs. The HSM itself
// holds only the store's root key.
package bfe
