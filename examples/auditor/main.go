// External auditor: any third party (a newsroom, Let's Encrypt, the user's
// own laptop) can replay the provider's published log, verify it against
// the digest the HSM fleet co-signed, and catch a provider that rewrites
// history (§6.3).
//
//	go run ./examples/auditor
package main

import (
	"context"
	"fmt"
	"log"

	"safetypin"
	"safetypin/internal/dlog"
	"safetypin/internal/logtree"
)

func main() {
	ctx := context.Background()
	fleet, err := safetypin.NewDeployment(safetypin.Params{
		NumHSMs:     8,
		ClusterSize: 4,
		Threshold:   2,
		GuessLimit:  8,
	})
	if err != nil {
		log.Fatal(err)
	}
	// A few users churn through backups and recoveries.
	for i, pin := range []string{"111111", "222222", "333333"} {
		user := fmt.Sprintf("user-%d@example.com", i)
		c, err := fleet.NewClient(user, pin)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Backup(ctx, []byte("data")); err != nil {
			log.Fatal(err)
		}
		if _, err := c.Recover(ctx, ""); err != nil {
			log.Fatal(err)
		}
	}

	// The auditor downloads a log snapshot and the fleet-agreed digest.
	snapshot := fleet.Provider.LogEntries()
	digest := fleet.Provider.LogDigest()
	if err := dlog.Replay(snapshot, digest); err != nil {
		log.Fatalf("audit failed: %v", err)
	}
	fmt.Printf("snapshot 1: %d entries replay to digest %x ✓\n", len(snapshot), digest[:8])

	// More activity, then a second snapshot: the auditor checks that the
	// new log extends the old one (append-only across time).
	c, err := fleet.NewClient("user-3@example.com", "444444")
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Backup(ctx, []byte("data")); err != nil {
		log.Fatal(err)
	}
	if _, err := c.Recover(ctx, ""); err != nil {
		log.Fatal(err)
	}
	snapshot2 := fleet.Provider.LogEntries()
	if err := dlog.CheckExtendsSnapshot(snapshot, snapshot2); err != nil {
		log.Fatalf("append-only violated: %v", err)
	}
	fmt.Printf("snapshot 2: %d entries, extends snapshot 1 ✓\n", len(snapshot2))

	// Now a *dishonest* provider serves the auditor a doctored history in
	// which one recovery attempt vanished (hiding an attack).
	doctored := append([]logtree.Entry(nil), snapshot2...)
	doctored = append(doctored[:1], doctored[2:]...)
	if err := dlog.CheckExtendsSnapshot(snapshot, doctored); err != nil {
		fmt.Printf("doctored history detected: %v ✓\n", err)
	} else {
		log.Fatal("auditor missed the deletion!")
	}
	// And a history that replays to a different digest than the HSMs
	// signed.
	if err := dlog.Replay(doctored, digest); err != nil {
		fmt.Printf("digest mismatch detected: %v ✓\n", err)
	} else {
		log.Fatal("auditor missed the digest mismatch!")
	}
}
