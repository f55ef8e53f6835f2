// Package adversary turns SafetyPin's §3 threat model into an executable
// workload: a PIN-guessing attacker driven against a live deployment,
// with the security claims checked as machine-verifiable invariants
// rather than prose.
//
// The package has three parts:
//
//   - A PIN-distribution sampler (pins.go). Real PIN choices are heavily
//     skewed — the Signal-PIN user studies (arXiv 2106.09006) and the
//     PIN-dictionary assessments (arXiv 1302.2656, 1404.1716) both find
//     a short dictionary head (repeats, dates, keyboard walks) covering
//     a large fraction of users — so the sampler models a Dist as an
//     explicit weighted head plus a uniform tail, with uniform,
//     study-motivated skewed, and targeted (leaked-dictionary) modes.
//     An optimal attacker guesses in descending-probability order
//     (Ranked); a population of victims samples (Sample).
//
//   - An attacker driver (driver.go). Each scenario provisions a fresh
//     deployment on a mem or WAL storage engine and attacks it the way
//     §3's adversary would: parallel guessers hammering one account,
//     session-resume abuse replaying one token many times, guesses
//     racing the epoch scheduler, crash-restart mid-attempt via the
//     storage fault injector and the kill -9 reopen path, and a
//     puncture-irreversibility probe that retries a completed recovery
//     before and after a provider restart.
//
//   - An invariant checker (invariants.go). Every scenario records its
//     observations against named predicates — the attempt counter never
//     exceeds k and never un-burns across crash-recovery replay, the
//     k+1-th guess is rejected, stale-attempt escrow eviction fires,
//     puncturing is irreversible, escrowed shares are never
//     double-replayed, a stored ciphertext gives an outsider no offline
//     test of a PIN guess — and the run's Report carries the violations
//     (an empty list is the passing state CI asserts).
//
// The experiments harness exposes the driver as `experiments -only
// adversary` with -pin-dist/-rate/-duration flags and a JSON report.
package adversary
