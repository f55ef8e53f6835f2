package adversary

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		dist *Dist
		want string
	}{
		{"nil", nil, "nil distribution"},
		{"empty", &Dist{Name: "x"}, "no head and no tail"},
		{"negative tail mass", &Dist{TailMass: -0.1, TailDigits: 4}, "outside [0,1]"},
		{"tail mass above one", &Dist{TailMass: 1.5, TailDigits: 4}, "outside [0,1]"},
		{"tail without digits", &Dist{TailMass: 0.5, Head: []Entry{{PIN: "1234", Weight: 1}}}, "tail digits"},
		{"tail digits too large", &Dist{TailMass: 1, TailDigits: 99}, "tail digits"},
		{"empty pin", &Dist{Head: []Entry{{PIN: "", Weight: 1}}}, "empty PIN"},
		{"negative weight", &Dist{Head: []Entry{{PIN: "1234", Weight: -1}}}, "weight"},
		{"duplicate pin", &Dist{Head: []Entry{{PIN: "1234", Weight: 1}, {PIN: "1234", Weight: 2}}}, "duplicate"},
		{"weightless head with mass", &Dist{Head: []Entry{{PIN: "1234", Weight: 0}}}, "zero-weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.dist.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.dist)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not mention %q", err, tc.want)
			}
		})
	}
	for _, d := range []*Dist{Uniform(4), Uniform(6), Skewed(), Targeted([]string{"123456", "000000"})} {
		if err := d.Validate(); err != nil {
			t.Errorf("Validate rejected builtin %s: %v", d.Name, err)
		}
	}
}

func TestSampleRespectsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	// Head-only distributions only ever emit head PINs.
	targeted := Targeted([]string{"111111", "222222", "333333"})
	for i := 0; i < 200; i++ {
		pin := targeted.Sample(rng)
		if pin != "111111" && pin != "222222" && pin != "333333" {
			t.Fatalf("targeted sample %d produced out-of-dictionary PIN %q", i, pin)
		}
	}

	// Uniform tails always emit the configured digit count.
	uni := Uniform(4)
	for i := 0; i < 200; i++ {
		if pin := uni.Sample(rng); len(pin) != 4 {
			t.Fatalf("uniform4 sample produced %q", pin)
		}
	}

	// The skewed head must actually dominate: with 28% head mass, the
	// single most popular PIN alone should show up far more often than
	// its uniform probability (1e-6) would allow.
	skew := Skewed()
	top := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		if skew.Sample(rng) == "123456" {
			top++
		}
	}
	if top < draws/100 {
		t.Fatalf("skewed sampler drew 123456 only %d/%d times; head weighting is broken", top, draws)
	}
	for i := 0; i < 200; i++ {
		if pin := skew.Sample(rng); len(pin) != 6 {
			t.Fatalf("skewed sample produced %q", pin)
		}
	}
}

func TestRankedOrder(t *testing.T) {
	skew := Skewed()
	ranked := skew.Ranked(3)
	if ranked[0] != "123456" || ranked[1] != "111111" {
		t.Fatalf("skewed rank order starts %v, want 123456 then 111111", ranked)
	}

	targeted := Targeted([]string{"9999", "8888", "7777"})
	if got := targeted.Ranked(3); got[0] != "9999" || got[1] != "8888" || got[2] != "7777" {
		t.Fatalf("targeted ranking reordered the leaked list: %v", got)
	}

	// The tail continues in counting order, skipping PINs already in the
	// head, and caps at the tail space.
	d := &Dist{Head: []Entry{{PIN: "0001", Weight: 5}}, TailDigits: 4, TailMass: 0.9}
	got := d.Ranked(4)
	want := []string{"0001", "0000", "0002", "0003"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranked tail = %v, want %v", got, want)
		}
	}
	small := &Dist{TailDigits: 1, TailMass: 1}
	if got := small.Ranked(100); len(got) != 10 {
		t.Fatalf("1-digit tail ranked %d PINs, want 10", len(got))
	}
}

func TestParseDistStrict(t *testing.T) {
	valid, err := Skewed().JSON()
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDist(valid)
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if d.Name != "skewed" || len(d.Head) != len(Skewed().Head) {
		t.Fatalf("round-trip lost content: %+v", d)
	}

	bad := []struct {
		name string
		blob string
	}{
		{"unknown field", `{"name":"x","tail_digits":4,"tail_mass":1,"bogus":true}`},
		{"trailing data", `{"name":"x","tail_digits":4,"tail_mass":1}{"again":1}`},
		{"truncated", `{"name":"x","head":[{"pin":"12`},
		{"no mass", `{"name":"x"}`},
		{"bad weight", `{"name":"x","head":[{"pin":"1234","weight":-3}]}`},
		{"zero-weight head", `{"name":"x","head":[{"pin":"1234","weight":0}]}`},
		{"not json", `hello`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseDist([]byte(tc.blob)); err == nil {
				t.Fatalf("ParseDist accepted %s", tc.blob)
			}
		})
	}
}

func TestLoadDist(t *testing.T) {
	for _, name := range []string{"", "skewed", "uniform", "uniform4"} {
		d, err := LoadDist(name)
		if err != nil {
			t.Fatalf("LoadDist(%q): %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("LoadDist(%q) returned invalid dist: %v", name, err)
		}
	}

	blob, err := Targeted([]string{"123456"}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dist.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDist(path)
	if err != nil {
		t.Fatalf("LoadDist(file): %v", err)
	}
	if d.Name != "targeted" {
		t.Fatalf("LoadDist(file) returned %q", d.Name)
	}
	if _, err := LoadDist(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("LoadDist accepted a missing file")
	}
}

// Targeted is the leaked-dictionary attacker: a head-only distribution
// over an explicit candidate list, first entries most likely (harmonic
// weights, the usual fit for leaked-list rank-frequency curves).
func Targeted(pins []string) *Dist {
	head := make([]Entry, len(pins))
	for i, p := range pins {
		head[i] = Entry{PIN: p, Weight: 1 / float64(i+1)}
	}
	return &Dist{Name: "targeted", Head: head}
}

// JSON renders the distribution for reports and round-trips.
func (d *Dist) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}
