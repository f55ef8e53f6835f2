// Command providerd runs the SafetyPin service provider as a network
// daemon: it stores recovery ciphertexts, hosts every HSM's outsourced key
// array, maintains the distributed log, and relays recovery traffic.
//
// A minimal local fleet:
//
//	providerd -listen 127.0.0.1:7000 -hsms 4 -cluster 2 -threshold 1 &
//	for i in 0 1 2 3; do hsmd -provider 127.0.0.1:7000 -id $i & done
//	# wait for "fleet complete"; then use cmd/safetypin to back up/recover.
//
// The daemon speaks wire protocol v2 (context-aware, cancellable) and
// keeps a v1 net/rpc compat shim on the same port for older clients.
// With -epoch-interval the epoch scheduler also commits pending log
// insertions on a standing cadence (the paper's 10-minute epochs) even
// when no client is blocked on WaitForCommit.
//
// The provider is untrusted: every security property is enforced by clients
// and HSM daemons.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"safetypin/internal/storage"
	"safetypin/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "address to listen on")
	hsms := flag.Int("hsms", 4, "fleet size N")
	cluster := flag.Int("cluster", 0, "cluster size n (default min(40,N))")
	threshold := flag.Int("threshold", 0, "recovery threshold t (default n/2)")
	bfeM := flag.Int("bfe-m", 1024, "Bloom-filter positions per HSM key")
	bfeK := flag.Int("bfe-k", 4, "Bloom-filter positions per ciphertext")
	chunks := flag.Int("log-chunks", 0, "audit chunks per epoch (default N)")
	audits := flag.Int("log-audits", 0, "chunks audited per HSM (default cover-all)")
	quorum := flag.Float64("quorum", 0.75, "fraction of fleet that must co-sign epochs")
	guesses := flag.Int("guess-limit", 1, "recovery attempts allowed per user")
	det := flag.Bool("deterministic-audit", false, "use Appendix B.3 deterministic chunk assignment")
	epochMS := flag.Int("epoch-window-ms", 0, "epoch scheduler batching window in ms (0 → default; paper: ~10 minutes)")
	epochBatch := flag.Int("epoch-max-batch", 0, "commit an epoch early at this many pending insertions (0 → default)")
	epochWorkers := flag.Int("epoch-workers", 0, "audit fan-out worker pool size (0 → min(16, fleet))")
	epochInterval := flag.Duration("epoch-interval", 0, "standing epoch cadence (e.g. 10m): commit pending insertions on this timer even with no waiters (0 → disabled)")
	storageKind := flag.String("storage", "mem", "provider state storage engine (mem | wal); mem loses all state on exit, wal journals to -data-dir with crash recovery on restart")
	dataDir := flag.String("data-dir", "", "directory for the wal engine's journal and snapshots (required with -storage wal)")
	snapshotEvery := flag.Int("snapshot-every", 0, "compact the journal into a snapshot every N epoch commits (0 → default 8; negative disables)")
	attemptLimit := flag.Int("attempt-limit", 0, "reject recovery-attempt reservations once a user has burned this many guesses, mirroring the HSM guess limit at the provider (0 → unlimited; typically set equal to -guess-limit)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long a graceful shutdown may spend flushing the pending epoch")
	flag.Parse()

	n := *hsms
	cl := *cluster
	if cl == 0 {
		cl = 40
		if cl > n {
			cl = n
		}
	}
	th := *threshold
	if th == 0 {
		th = cl / 2
		if th < 1 {
			th = 1
		}
	}
	ch := *chunks
	if ch == 0 {
		ch = n
	}
	au := *audits
	if au == 0 {
		au = 2 * (ch + n - 1) / n
		if au > ch {
			au = ch
		}
	}
	cfg := transport.FleetConfig{
		NumHSMs:         n,
		ClusterSize:     cl,
		Threshold:       th,
		BFEM:            *bfeM,
		BFEK:            *bfeK,
		LogChunks:       ch,
		AuditsPerHSM:    au,
		MinSignerFrac:   *quorum,
		GuessLimit:      *guesses,
		SchemeName:      "bls12381-multisig",
		HashModeName:    "rfc9380",
		Deterministic:   *det,
		EpochBatchMS:    *epochMS,
		EpochMaxBatch:   *epochBatch,
		EpochWorkers:    *epochWorkers,
		EpochIntervalMS: int(epochInterval.Milliseconds()),
	}
	var opts []transport.DaemonOption
	switch *storageKind {
	case "mem":
		// Volatile: the pre-durability behavior.
	case "wal":
		if *dataDir == "" {
			log.Fatalf("providerd: -storage wal requires -data-dir")
		}
		eng, err := storage.OpenFile(*dataDir)
		if err != nil {
			log.Fatalf("providerd: opening %s: %v", *dataDir, err)
		}
		opts = append(opts, transport.WithStorageEngine(eng))
	default:
		log.Fatalf("providerd: unknown -storage %q (mem | wal)", *storageKind)
	}
	if *snapshotEvery != 0 {
		opts = append(opts, transport.WithSnapshotEvery(*snapshotEvery))
	}
	if *attemptLimit > 0 {
		opts = append(opts, transport.WithAttemptLimit(*attemptLimit))
	}
	d, err := transport.NewProviderDaemon(cfg, opts...)
	if err != nil {
		log.Fatalf("providerd: %v", err)
	}
	ln, addr, err := transport.Serve("Provider", d.Service(), d.WireRegistry(), *listen)
	if err != nil {
		log.Fatalf("providerd: %v", err)
	}
	defer ln.Close()
	log.Printf("providerd: listening on %s (fleet %d, cluster %d-of-%d, scheme %s, wire v2 + v1 shim)",
		addr, n, th, cl, cfg.SchemeName)
	if *epochInterval > 0 {
		log.Printf("providerd: standing epoch timer every %v", *epochInterval)
	}

	// Announce fleet completion and push rosters once every HSM registers.
	go func() {
		ctx := context.Background()
		rp, err := transport.DialProvider(addr)
		if err != nil {
			return
		}
		defer rp.Close()
		for {
			time.Sleep(500 * time.Millisecond)
			st, err := rp.Status(ctx)
			if err != nil {
				continue
			}
			if st.RosterSent {
				return
			}
			if len(st.Registered) == st.Expected {
				if err := rp.InstallRosters(ctx); err != nil {
					log.Printf("providerd: roster install: %v", err)
					continue
				}
				log.Printf("providerd: fleet complete, rosters installed")
				return
			}
		}
	}()

	// SIGTERM/SIGINT: stop accepting, flush the pending epoch, snapshot,
	// close storage — a graceful stop leaves no WAL to replay on restart.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("providerd: shutting down")
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Printf("providerd: shutdown: %v", err)
		os.Exit(1)
	}
}
