// Data center: run the provider and each HSM as separate network services
// over real TCP sockets — the same wiring as cmd/providerd + cmd/hsmd, in
// one process for convenience. A client then backs up and recovers through
// the sockets on wire protocol v3: framed, context-aware, one fixed layout
// per message. The client's deadline propagates across the sockets:
// cancelling aborts the daemon-side handler and its in-flight HSM
// exchange.
//
//	go run ./examples/datacenter
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"safetypin/internal/client"
	"safetypin/internal/lhe"
	"safetypin/internal/transport"
)

func main() {
	ctx := context.Background()
	const numHSMs = 4
	cfg := transport.FleetConfig{
		NumHSMs:       numHSMs,
		ClusterSize:   2,
		Threshold:     1,
		BFEM:          256,
		BFEK:          4,
		LogChunks:     numHSMs,
		AuditsPerHSM:  numHSMs,
		MinSignerFrac: 0.5,
		GuessLimit:    2,
		SchemeName:    "bls12381-multisig",
		HashModeName:  "rfc9380",
	}

	// Provider daemon: its wire v3 registry.
	pd, err := transport.NewProviderDaemon(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer pd.Close()
	pln, paddr, err := transport.Serve("", nil, pd.WireRegistry(), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer pln.Close()
	fmt.Printf("provider listening on %s (wire v3)\n", paddr)

	// HSM daemons: provision (keys stream into the provider-hosted store
	// over RPC), serve, register.
	for id := 0; id < numHSMs; id++ {
		hd, reg, err := transport.ProvisionHSM(paddr, id, "")
		if err != nil {
			log.Fatalf("hsm %d: %v", id, err)
		}
		hln, haddr, err := transport.Serve("", nil, hd.WireRegistry(), "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer hln.Close()
		reg.Addr = haddr
		rp, err := transport.DialProvider(paddr)
		if err != nil {
			log.Fatal(err)
		}
		if err := rp.RegisterHSM(ctx, reg); err != nil {
			log.Fatal(err)
		}
		rp.Close()
		fmt.Printf("hsm %d serving on %s\n", id, haddr)
	}

	// Push the signing roster once the fleet is complete.
	rp, err := transport.DialProvider(paddr)
	if err != nil {
		log.Fatal(err)
	}
	defer rp.Close()
	if err := rp.InstallRosters(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("fleet complete, rosters installed")

	// A client over the same sockets, with an end-to-end deadline: if the
	// fleet wedged, the context — not a hang — would end the recovery, and
	// the cancellation would ride the wire to every in-flight handler.
	fleetKeys, err := rp.Fleet(ctx)
	if err != nil {
		log.Fatal(err)
	}
	params, err := lhe.NewParams(cfg.NumHSMs, cfg.ClusterSize, cfg.Threshold)
	if err != nil {
		log.Fatal(err)
	}
	c, err := client.New("dave@example.com", "662607", params, fleetKeys, rp)
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("bytes that crossed real sockets")
	if err := c.Backup(ctx, msg); err != nil {
		log.Fatal(err)
	}
	recoverCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	got, err := c.Recover(recoverCtx, "")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		log.Fatal("mismatch")
	}
	fmt.Printf("backup + recovery across TCP ✓ (%d bytes)\n", len(got))
}
