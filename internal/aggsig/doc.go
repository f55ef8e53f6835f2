// Package aggsig abstracts the aggregate-signature scheme HSMs use to
// co-sign log updates (§6.2). The production scheme is BLS multisignatures
// (package bls): the provider adds all online HSMs' signatures into one
// constant-size signature that every HSM verifies with two pairings,
// independent of the fleet size.
//
// A second backend — plain ECDSA with concatenation — exists as the ablation
// the paper's scalability argument is measured against: verification work
// grows linearly in the number of signers, which is exactly what the BLS
// choice avoids. Both backends implement all of Scheme, so the distributed
// log runs the same code over either, from RosterCache's quorum key to
// VerifyWithKey. ECDSA-concat implements the key operations in their slow
// form: its aggregate key is the ordered list of signer keys, and it
// checks signature i against key i.
package aggsig
