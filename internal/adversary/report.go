package adversary

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ScenarioStats summarizes one scenario run on one storage engine.
type ScenarioStats struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	// Guesses is how many PIN guesses the attacker issued; Granted how
	// many the provider reserved an attempt for; Rejected how many hit
	// the attempt limit at the front door.
	Guesses  int `json:"guesses"`
	Granted  int `json:"granted"`
	Rejected int `json:"rejected"`
	// Recovered counts successful reconstructions (a guesser that drew
	// the victim's PIN inside the budget, or the legitimate recovery a
	// scenario stages on purpose).
	Recovered int `json:"recovered"`
	// Resumes counts ResumeRecovery calls the scenario issued.
	Resumes int `json:"resumes,omitempty"`
	// Restarts counts provider crash/reopen cycles.
	Restarts int `json:"restarts,omitempty"`
	// Punctures is the fleet-wide puncture delta over the scenario.
	Punctures int64 `json:"punctures"`
	// KPlusOneRejected records the scenario's explicit end-of-run probe:
	// with the budget burned, one more reservation was refused.
	KPlusOneRejected bool  `json:"k_plus_1_rejected"`
	ElapsedMS        int64 `json:"elapsed_ms"`
}

// Report is the JSON artifact of one adversarial run: configuration,
// per-scenario stats, which invariants were asserted how often, and
// every violation (empty = pass).
type Report struct {
	Dist       string          `json:"dist"`
	GuessLimit int             `json:"guess_limit"`
	Guessers   int             `json:"guessers"`
	Fleet      int             `json:"fleet"`
	Engines    []string        `json:"engines"`
	Scenarios  []ScenarioStats `json:"scenarios"`
	Checked    map[string]int  `json:"invariants_checked"`
	Violations []Violation     `json:"violations"`
}

// OK reports whether the run held every invariant.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// JSON renders the report for -out files and CI artifacts.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render writes the human-readable summary the experiments CLI prints.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "adversary: dist=%s k=%d guessers=%d fleet=%d engines=%v\n",
		r.Dist, r.GuessLimit, r.Guessers, r.Fleet, r.Engines)
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "  %-22s %-4s guesses=%-4d granted=%-3d rejected=%-4d recovered=%d resumes=%d restarts=%d punctures=%-4d k+1-rejected=%v %dms\n",
			s.Name, s.Engine, s.Guesses, s.Granted, s.Rejected, s.Recovered,
			s.Resumes, s.Restarts, s.Punctures, s.KPlusOneRejected, s.ElapsedMS)
	}
	invs := make([]string, 0, len(r.Checked))
	for inv := range r.Checked {
		invs = append(invs, inv)
	}
	sort.Strings(invs)
	fmt.Fprintf(w, "  invariants asserted:")
	for _, inv := range invs {
		fmt.Fprintf(w, " %s×%d", inv, r.Checked[inv])
	}
	fmt.Fprintln(w)
	if r.OK() {
		fmt.Fprintln(w, "  PASS: zero invariant violations")
		return
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
}
