// Command hsmd runs one SafetyPin HSM as an OS process — the software
// stand-in for a SoloKey on the paper's USB fabric. All secret material
// (the puncturable-encryption root key, the log-signing key) lives inside
// this process; the multi-megabyte puncturable secret array is outsourced,
// encrypted, to the provider via the secure-deletion store.
//
// The daemon serves wire protocol v3 (context-aware: a provider that
// cancels an exchange aborts it here too) and refuses v1 and v2 peers.
//
//	hsmd -provider 127.0.0.1:7000 -id 0
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"

	"safetypin/internal/transport"
)

func main() {
	providerAddr := flag.String("provider", "127.0.0.1:7000", "provider daemon address")
	id := flag.Int("id", 0, "this HSM's fleet index")
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	flag.Parse()

	// Provision against the provider first (keys stream into the
	// provider-hosted store over RPC), then serve and register with the
	// live listen address.
	d, reg, err := transport.ProvisionHSM(*providerAddr, *id, "")
	if err != nil {
		log.Fatalf("hsmd %d: provisioning: %v", *id, err)
	}
	ln, addr, err := transport.Serve("", nil, d.WireRegistry(), *listen)
	if err != nil {
		log.Fatalf("hsmd %d: %v", *id, err)
	}
	defer ln.Close()
	reg.Addr = addr

	rp, err := transport.DialProvider(*providerAddr)
	if err != nil {
		log.Fatalf("hsmd %d: %v", *id, err)
	}
	if err := rp.RegisterHSM(context.Background(), reg); err != nil {
		log.Fatalf("hsmd %d: registering: %v", *id, err)
	}
	rp.Close()
	log.Printf("hsmd %d: serving on %s (provider %s)", *id, addr, *providerAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("hsmd %d: shutting down", *id)
}
