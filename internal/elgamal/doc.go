// Package elgamal implements the hashed-ElGamal public-key encryption scheme
// of Appendix A.4: a Diffie-Hellman KEM on P-256 combined with an AES-GCM
// data-encapsulation mechanism.
//
// To encrypt message m to public key X = x·G, the encryptor samples r,
// computes the shared point X^r, derives a one-time symmetric key
// K = H(domain ‖ R ‖ X^r ‖ H(ad)), and outputs (R = r·G, AE.Enc(K, m, ad)).
// Decryption recomputes K from R^x. One nonce may serve several recipients
// (Ephemeral): the puncturable scheme in package bfe seals the K copies of a
// share that way.
//
// The paper's domain-separation rule (§A.4) prepends the client's username,
// the ciphertext salt, and the cluster's public keys to the hash input; the
// ad ("associated data") parameter carries exactly that string, and it is
// additionally authenticated by GCM, so a ciphertext produced for one
// (user, salt, cluster) context fails to decrypt in any other.
package elgamal
