package adversary

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
)

// Entry is one dictionary PIN with its probability weight. Weights are
// relative within the head; Dist.Validate normalizes nothing — sampling
// and ranking work from the raw weights.
type Entry struct {
	PIN    string  `json:"pin"`
	Weight float64 `json:"weight"`
}

// Dist is a PIN distribution: an explicit weighted dictionary head plus
// an optional uniform tail over all TailDigits-digit PINs not in the
// head. TailMass is the total probability of the tail (0 → head-only,
// the targeted/leaked-dictionary case); the head carries the remaining
// 1-TailMass split proportionally to the entry weights.
//
// The shape follows the PIN-choice literature (PAPERS.md): a short
// popular head — repeats, dates, keyboard patterns — covers a large
// fraction of users, with the remainder near-uniform.
type Dist struct {
	Name       string  `json:"name"`
	Head       []Entry `json:"head,omitempty"`
	TailDigits int     `json:"tail_digits,omitempty"`
	TailMass   float64 `json:"tail_mass,omitempty"`
}

// maxTailDigits bounds the uniform tail space (10^12 PINs is already
// far beyond anything a k-guess attacker can explore).
const maxTailDigits = 12

// Validate rejects distributions that cannot be sampled: no mass at
// all, non-finite or negative weights, an all-zero-weight head that is
// supposed to carry mass, duplicate head PINs, or a tail without a
// digit count.
func (d *Dist) Validate() error {
	if d == nil {
		return errors.New("adversary: nil distribution")
	}
	if d.TailMass < 0 || d.TailMass > 1 || math.IsNaN(d.TailMass) {
		return fmt.Errorf("adversary: tail mass %v outside [0,1]", d.TailMass)
	}
	if d.TailMass > 0 && (d.TailDigits < 1 || d.TailDigits > maxTailDigits) {
		return fmt.Errorf("adversary: tail digits %d outside [1,%d]", d.TailDigits, maxTailDigits)
	}
	if len(d.Head) == 0 && d.TailMass == 0 {
		return errors.New("adversary: distribution has no head and no tail mass")
	}
	seen := make(map[string]bool, len(d.Head))
	total := 0.0
	for i, e := range d.Head {
		if e.PIN == "" {
			return fmt.Errorf("adversary: head entry %d has empty PIN", i)
		}
		if e.Weight < 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("adversary: head entry %q has weight %v", e.PIN, e.Weight)
		}
		if seen[e.PIN] {
			return fmt.Errorf("adversary: duplicate head PIN %q", e.PIN)
		}
		seen[e.PIN] = true
		total += e.Weight
	}
	if len(d.Head) > 0 && total == 0 && d.TailMass < 1 {
		return errors.New("adversary: zero-weight dictionary head carries nonzero mass")
	}
	return nil
}

// headMass returns the probability carried by the head (0 when the head
// is empty or weightless).
func (d *Dist) headMass() float64 {
	for _, e := range d.Head {
		if e.Weight > 0 {
			return 1 - d.TailMass
		}
	}
	return 0
}

// Sample draws one PIN: a weighted head entry with probability
// 1-TailMass, otherwise a uniform TailDigits-digit PIN (head PINs may
// also fall out of the tail — the tail models the mass of *unpopular*
// choices and re-rolling would bias it for no observable gain at k
// guesses). rng must not be shared across goroutines.
func (d *Dist) Sample(rng *rand.Rand) string {
	if hm := d.headMass(); hm > 0 && (d.TailMass == 0 || rng.Float64() < hm) {
		total := 0.0
		for _, e := range d.Head {
			total += e.Weight
		}
		x := rng.Float64() * total
		for _, e := range d.Head {
			x -= e.Weight
			if x < 0 {
				return e.PIN
			}
		}
		return d.Head[len(d.Head)-1].PIN
	}
	digits := d.TailDigits
	if digits == 0 {
		digits = pinDigits(d.Head)
	}
	var b strings.Builder
	for i := 0; i < digits; i++ {
		b.WriteByte(byte('0' + rng.Intn(10)))
	}
	return b.String()
}

// pinDigits guesses a digit count from the head for the degenerate
// head-only-but-weightless case Sample can still be asked to serve.
func pinDigits(head []Entry) int {
	for _, e := range head {
		if n := len(e.PIN); n >= 1 && n <= maxTailDigits {
			return n
		}
	}
	return 6
}

// Ranked returns the optimal attacker's first n guesses: head entries
// in descending weight (ties broken by PIN for determinism), then
// unseen tail PINs in counting order. This is the guess order a
// k-guess budget is spent against.
func (d *Dist) Ranked(n int) []string {
	head := append([]Entry(nil), d.Head...)
	sort.SliceStable(head, func(i, j int) bool {
		if head[i].Weight != head[j].Weight {
			return head[i].Weight > head[j].Weight
		}
		return head[i].PIN < head[j].PIN
	})
	out := make([]string, 0, n)
	seen := make(map[string]bool, len(head))
	for _, e := range head {
		if len(out) == n {
			return out
		}
		if e.Weight > 0 && !seen[e.PIN] {
			seen[e.PIN] = true
			out = append(out, e.PIN)
		}
	}
	digits := d.TailDigits
	if digits == 0 {
		digits = pinDigits(d.Head)
	}
	for i := 0; len(out) < n; i++ {
		pin := fmt.Sprintf("%0*d", digits, i)
		if len(pin) > digits {
			break // tail space exhausted
		}
		if !seen[pin] {
			out = append(out, pin)
		}
	}
	return out
}

// Uniform is the baseline distribution: every digits-digit PIN equally
// likely (the assumption SafetyPin's k-guess bound is usually stated
// under — and the one the PIN studies show is false in practice).
func Uniform(digits int) *Dist {
	return &Dist{Name: fmt.Sprintf("uniform%d", digits), TailDigits: digits, TailMass: 1}
}

// Skewed is a study-motivated 6-digit distribution: the measured shape
// of human PIN choice — repeated digits, dates (DDMMYY/MMDDYY and bare
// years), and ascending walks dominating a long near-uniform tail. The
// head weights approximate the popularity ratios reported for 6-digit
// PINs (arXiv 2106.09006 §5, arXiv 1302.2656); roughly a quarter of
// the mass sits on a few dozen strings.
func Skewed() *Dist {
	head := []Entry{
		{PIN: "123456", Weight: 95}, {PIN: "111111", Weight: 24},
		{PIN: "123123", Weight: 17}, {PIN: "121212", Weight: 12},
		{PIN: "000000", Weight: 12}, {PIN: "654321", Weight: 9},
		{PIN: "666666", Weight: 8}, {PIN: "112233", Weight: 7},
		{PIN: "159753", Weight: 6}, {PIN: "789456", Weight: 6},
		{PIN: "999999", Weight: 6}, {PIN: "222222", Weight: 5},
		{PIN: "777777", Weight: 5}, {PIN: "555555", Weight: 5},
		{PIN: "141414", Weight: 4}, {PIN: "101010", Weight: 4},
		{PIN: "131313", Weight: 4}, {PIN: "888888", Weight: 4},
		{PIN: "696969", Weight: 4}, {PIN: "420420", Weight: 3},
	}
	// Date-shaped PINs: bare years and DDMMYY samples, individually
	// modest but collectively a large slice of observed choices.
	for year := 1960; year <= 2004; year += 4 {
		head = append(head, Entry{PIN: fmt.Sprintf("19%02d", year%100) + "00", Weight: 1.5})
	}
	for _, date := range []string{"010180", "010190", "311299", "140295", "250999", "120686", "070707", "081289"} {
		head = append(head, Entry{PIN: date, Weight: 2})
	}
	return &Dist{Name: "skewed", Head: head, TailDigits: 6, TailMass: 0.72}
}

// ParseDist decodes a JSON distribution strictly — unknown fields,
// trailing data, and anything Validate rejects all error. This is the
// boundary the fuzz target hammers.
func ParseDist(b []byte) (*Dist, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var d Dist
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("adversary: parsing distribution: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return nil, errors.New("adversary: trailing data after distribution")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// LoadDist resolves a -pin-dist flag value: the builtin names "uniform"
// (6-digit), "uniform4", "skewed", or a path to a JSON distribution
// file.
func LoadDist(name string) (*Dist, error) {
	switch name {
	case "", "skewed":
		return Skewed(), nil
	case "uniform":
		return Uniform(6), nil
	case "uniform4":
		return Uniform(4), nil
	}
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("adversary: loading distribution: %w", err)
	}
	return ParseDist(b)
}
