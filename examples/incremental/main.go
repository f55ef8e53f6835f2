// Incremental backups (§8): phones back up every few days. Instead of a
// full SafetyPin ciphertext per backup, the client protects one master key
// with SafetyPin and encrypts daily deltas under it locally — zero HSM
// interaction per delta. Losing the device costs one PIN-based recovery of
// the master key, after which every delta decrypts.
//
//	go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"

	"safetypin"
)

func main() {
	ctx := context.Background()
	fleet, err := safetypin.NewDeployment(safetypin.Params{
		NumHSMs:     16,
		ClusterSize: 8,
		Threshold:   4,
	})
	if err != nil {
		log.Fatal(err)
	}
	phone, err := fleet.NewClient("carol@example.com", "314159")
	if err != nil {
		log.Fatal(err)
	}

	// One SafetyPin backup protects the master key…
	master, err := phone.EnableIncrementalBackups(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("master key SafetyPin-protected (one-time setup)")

	// …then every delta is a purely local encryption.
	for day, delta := range []string{"monday's photos", "tuesday's messages", "wednesday's notes"} {
		if err := phone.IncrementalBackup(ctx, master, []byte(delta)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: uploaded %q (no HSM touched)\n", day+1, delta)
	}

	// Device lost. The replacement recovers the master key with the PIN,
	// then decrypts the latest delta offline.
	replacement, err := fleet.NewClient("carol@example.com", "314159")
	if err != nil {
		log.Fatal(err)
	}
	recoveredKey, err := replacement.Recover(ctx, "")
	if err != nil {
		log.Fatal(err)
	}
	latest, err := replacement.FetchIncremental(ctx, recoveredKey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replacement device recovered master key and read: %q ✓\n", latest)
}
