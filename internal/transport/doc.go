// Package transport runs SafetyPin's entities as separate OS processes
// connected over TCP, standing in for the paper's USB fabric between the
// host and its SoloKeys (and the data-center network between clients and
// the provider).
//
// The wire protocol is v3 (wire.go), negotiated at connect: a 4-byte
// magic + 1-byte version handshake, then length-prefixed frames carrying
// per-message type tags. Every payload is one fixed layout on
// internal/codec (messages.go), decoded strictly: no reflection decoder
// ever runs on bytes from the provider, a client or an HSM. Deadlines and
// cancellation propagate: a client that cancels a call sends a cancel
// frame that aborts the matching server-side handler, and a dropped
// connection aborts every in-flight handler on that connection. A v2
// preamble gets the reject byte and a v1 (net/rpc) stream is closed;
// golden tests pin every layout and the refusals.
//
// Message tags (one byte per RPC, append-only, never renumbered):
//
//	0x10 ProviderConfig      0x1a ReserveAttempt       0x24 OracleGetMany
//	0x11 retired             0x1b LogRecoveryAttempt   0x25 OraclePutMany
//	0x12 retired             0x1c retired
//	0x13 Register            0x1d WaitForCommit        0x30 HSMRecover
//	0x14 Status              0x1e FetchInclusionProof  0x31 HSMInstallRoster
//	0x15 InstallRosters      0x1f RelayRecover         0x32 HSMChooseChunks
//	0x16 FetchFleet          0x20 FetchEscrow          0x33 HSMHandleAudit
//	0x17 StoreCiphertext     0x21 ClearEscrow          0x34 HSMHandleCommit
//	0x18 FetchCiphertext     0x22 LogEntries
//	0x19 AttemptCount        0x23 LogDigest
//
// 0x24/0x25 carry a batch of an HSM's outsourced blocks (at most
// securestore.MaxBatch). 0x11/0x12 were the single-block oracle calls and
// 0x1c was RunEpoch, which let any peer force an epoch; they are retired,
// answered as unknown tags, and never reused.
//
// Three roles:
//
//   - the provider daemon (cmd/providerd) hosts the provider service:
//     client API, per-HSM outsourced block storage, HSM registration, and
//     log epochs;
//   - each HSM daemon (cmd/hsmd) hosts the HSM service and stores its
//     outsourced key array *back at the provider* through RemoteOracle,
//     a batch of tree paths per exchange — the HSM process holds only its
//     root key, exactly like the hardware;
//   - the client CLI (cmd/safetypin) talks to the provider through
//     RemoteProvider, which implements the same role-scoped
//     client.Provider interface as the in-process provider.
//
// Trust note: FetchFleet hands clients the HSM public keys through the
// provider. The paper (§2) is explicit that clients must obtain authentic
// HSM keys out of band (hardware attestation or the transparency log); a
// production deployment would pin them. The transport exposes the fleet
// digest so callers can compare against an out-of-band value.
package transport
