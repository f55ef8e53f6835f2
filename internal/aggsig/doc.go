// Package aggsig is the BLS multisignature scheme HSMs use to co-sign log
// updates (§6.2), over package bls: the provider adds all online HSMs'
// signatures into one constant-size signature that every HSM verifies
// with two pairings, independent of the fleet size. It adds the roster
// layer the log needs: versioned roster-key encodings, aggregation that
// refuses a repeated key, and RosterCache's per-epoch quorum keys.
package aggsig
