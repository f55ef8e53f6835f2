package adversary

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// FuzzParseDist hammers the distribution codec the way FuzzDecodeFrame
// hammers the storage frame decoder: anything that parses must
// validate, sample without panicking, and survive a JSON round-trip.
func FuzzParseDist(f *testing.F) {
	if blob, err := Skewed().JSON(); err == nil {
		f.Add(blob)
	}
	if blob, err := Uniform(4).JSON(); err == nil {
		f.Add(blob)
	}
	if blob, err := Targeted([]string{"123456", "000000"}).JSON(); err == nil {
		f.Add(blob)
	}
	f.Add([]byte(`{"name":"x","head":[{"pin":"1234","weight":0}],"tail_digits":4,"tail_mass":1}`))
	f.Add([]byte(`{"name":"x","head":[{"pin":"12`))                   // truncated
	f.Add([]byte(`{"name":"x","tail_mass":0.5}`))                     // tail without digits
	f.Add([]byte(`{"name":"","head":[],"tail_mass":0}`))              // no mass at all
	f.Add([]byte(`{"name":"x","head":[{"pin":"1","weight":1e309}]}`)) // inf weight
	f.Fuzz(func(t *testing.T, blob []byte) {
		d, err := ParseDist(blob)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("ParseDist accepted an invalid distribution: %v\n%s", err, blob)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 8; i++ {
			if pin := d.Sample(rng); pin == "" {
				t.Fatalf("valid distribution sampled an empty PIN\n%s", blob)
			}
		}
		for _, pin := range d.Ranked(4) {
			if pin == "" {
				t.Fatalf("valid distribution ranked an empty PIN\n%s", blob)
			}
		}
		out, err := d.JSON()
		if err != nil {
			t.Fatalf("valid distribution does not re-marshal: %v", err)
		}
		if _, err := ParseDist(out); err != nil {
			t.Fatalf("round-trip does not re-parse: %v\n%s", err, out)
		}
	})
}

// FuzzParseReport covers the report codec: malformed and truncated
// JSON must error cleanly, and anything accepted must round-trip.
func FuzzParseReport(f *testing.F) {
	seed := &Report{
		Dist:       "skewed",
		GuessLimit: 4,
		Guessers:   8,
		Fleet:      32,
		Engines:    []string{"mem", "wal"},
		Scenarios: []ScenarioStats{{
			Name: "concurrent-guessers", Engine: "mem",
			Guesses: 40, Granted: 4, Rejected: 36, KPlusOneRejected: true,
		}},
		Checked: map[string]int{InvAttemptBounded: 3},
		Violations: []Violation{{
			Scenario: "x", Engine: "mem", Invariant: InvNoUnburn, Detail: "counter regressed",
		}},
	}
	if blob, err := seed.JSON(); err == nil {
		f.Add(blob)
	}
	f.Add([]byte(`{"dist":"skewed","guess_limit":-1}`))
	f.Add([]byte(`{"dist":"x","scenarios":[{"name":"","engine":"mem"}]}`))
	f.Add([]byte(`{"dist":"x","scenarios":[{"name":"a","guesses":1,"granted":2}]}`))
	f.Add([]byte(`{"violations":[{"scenario":"a"}]}`))
	f.Add([]byte(`{}{}`))
	f.Add([]byte(`{"dist":"x"`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := ParseReport(blob)
		if err != nil {
			return
		}
		out, err := r.JSON()
		if err != nil {
			t.Fatalf("accepted report does not re-marshal: %v", err)
		}
		back, err := ParseReport(out)
		if err != nil {
			t.Fatalf("round-trip does not re-parse: %v\n%s", err, out)
		}
		if back.OK() != r.OK() {
			t.Fatal("round-trip changed the verdict")
		}
	})
}

// ParseReport decodes a report strictly: unknown fields, trailing
// data, and structurally impossible stats all error — this codec is a
// fuzz surface alongside the storage frame decoder.
func ParseReport(b []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("adversary: parsing report: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return nil, errors.New("adversary: trailing data after report")
	}
	if r.GuessLimit < 0 || r.Guessers < 0 || r.Fleet < 0 {
		return nil, errors.New("adversary: negative configuration in report")
	}
	for _, s := range r.Scenarios {
		if s.Name == "" {
			return nil, errors.New("adversary: unnamed scenario in report")
		}
		if s.Guesses < 0 || s.Granted < 0 || s.Rejected < 0 || s.Recovered < 0 ||
			s.Resumes < 0 || s.Restarts < 0 || s.Punctures < 0 || s.ElapsedMS < 0 {
			return nil, fmt.Errorf("adversary: negative counter in scenario %q", s.Name)
		}
		if s.Granted > s.Guesses {
			return nil, fmt.Errorf("adversary: scenario %q granted %d of %d guesses", s.Name, s.Granted, s.Guesses)
		}
	}
	for _, v := range r.Violations {
		if v.Invariant == "" {
			return nil, errors.New("adversary: violation without invariant name")
		}
	}
	return &r, nil
}
