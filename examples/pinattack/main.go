// PIN attack: a malicious insider with full service-provider access tries
// to brute-force a user's 6-digit PIN. The distributed log defeats the
// attack — each guess consumes a publicly logged attempt, and the HSMs
// refuse to serve beyond the per-user budget.
//
//	go run ./examples/pinattack
package main

import (
	"context"
	"errors"
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
		GuessLimit:  3, // the provider's policy: three attempts per user
	})
	if err != nil {
		log.Fatal(err)
	}
	victim, err := fleet.NewClient("victim@example.com", "271828")
	if err != nil {
		log.Fatal(err)
	}
	if err := victim.Backup(ctx, []byte("the victim's entire digital life")); err != nil {
		log.Fatal(err)
	}
	fmt.Println("victim backed up under PIN 271828 (attacker doesn't know it)")

	// The attacker controls the provider, so they can run the recovery
	// protocol with any PIN guess they like. Each guess must be logged or
	// no HSM will answer.
	attacker, err := fleet.NewClient("victim@example.com", "")
	if err != nil {
		log.Fatal(err)
	}
	guesses := []string{"000000", "123456", "111111", "271828" /* would be correct! */}
	for i, guess := range guesses {
		_, err := attacker.Recover(ctx, guess)
		if err == nil {
			fmt.Printf("guess %d (%s): SUCCEEDED — system broken!\n", i+1, guess)
			return
		}
		fmt.Printf("guess %d (%s): rejected (%v)\n", i+1, guess, firstLine(err))
	}

	// The fourth guess was the real PIN, but the budget was spent. And the
	// whole attack is on the public record:
	entries := fleet.Provider.LogEntries()
	fmt.Printf("\npublic log now shows %d recovery attempts against the victim:\n", len(entries))
	for _, e := range entries {
		fmt.Printf("  %s\n", e.ID)
	}
	fmt.Println("anyone auditing the log — including the victim — sees the attack ✓")
}

func firstLine(err error) string {
	var unwrapped error = err
	for errors.Unwrap(unwrapped) != nil {
		unwrapped = errors.Unwrap(unwrapped)
	}
	s := unwrapped.Error()
	if len(s) > 70 {
		s = s[:70] + "…"
	}
	return s
}
