// Package ratioguard holds performance guards that no host's speed can
// move. A guard is the ratio of two benchmarks' time per op and a bound
// it must stay under. Both sides run on the same host in the same minute,
// so a slow phase of a shared host slows numerator and denominator alike,
// while a kernel that falls back to a slower path moves the ratio.
//
// Each package that owns the kernels keeps one table of guards and runs
// it from a benchmark, BenchmarkRatioGuards, so that `go test ./...`
// never runs it:
//
//	go test -run='^$' -bench='^BenchmarkRatioGuards$' -benchtime=1x ./internal/bls/
package ratioguard

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// Guard bounds Num's time per op over Den's. Num and Den are ordinary
// benchmark functions: they set up, call b.ResetTimer, and loop b.N times.
type Guard struct {
	Name     string // "Num/Den", as the result line prints it
	Num, Den func(*testing.B)
	Max      float64
}

const (
	// reps is how many interleaved runs each side gets; each side keeps
	// its fastest. On a shared host one run's speed can halve for
	// seconds at a time, and a phase that slow must not land on one side
	// only; at 8 the P-256 guards still spread by a fifth.
	reps = 16
	// target is how long one run of one side lasts.
	target = 20 * time.Millisecond
	// attempts is how many times a guard over its bound is measured
	// before it fails. A neighbour's load can slow one side more than the
	// other for seconds at a time; a regression reads over its bound on
	// every attempt.
	attempts = 3
)

// Run measures every guard and fails b for each ratio over its bound.
//
// The sides run on b itself, with b.N set to the iteration count they
// need. testing.Benchmark cannot run them: it waits for the lock the
// running benchmark holds, and it would obey -benchtime=1x.
//
//spin:testhook the kernel ratio guards of bls, aggsig and bfe benchmark through it
func Run(b *testing.B, guards []Guard) {
	saved := b.N
	defer func() { b.N = saved }()
	for _, g := range guards {
		var ratio float64
		for a := 0; a < attempts; a++ {
			num, den := measure(b, g)
			ratio = num / den
			b.Logf("%s = %.4g (max %g; %.4g / %.4g ns/op)", g.Name, ratio, g.Max, num, den)
			if ratio <= g.Max {
				break
			}
		}
		if ratio > g.Max {
			b.Errorf("%s = %.4g, over its bound %g on all %d attempts", g.Name, ratio, g.Max, attempts)
		}
	}
}

// measure returns each side's fastest time per op over reps interleaved
// runs.
func measure(b *testing.B, g Guard) (num, den float64) {
	nNum, nDen := iterations(b, g.Num), iterations(b, g.Den)
	num, den = math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		num = math.Min(num, perOp(b, g.Num, nNum))
		den = math.Min(den, perOp(b, g.Den, nDen))
	}
	return num, den
}

// iterations finds how many iterations of f last about target.
func iterations(b *testing.B, f func(*testing.B)) int {
	n := 1
	for {
		op := perOp(b, f, n)
		if op*float64(n) >= float64(target)/4 {
			return max(1, int(float64(target)/op))
		}
		next := 100 * n
		if op > 0 {
			next = min(next, int(float64(target)/op))
		}
		n = max(next, n+1)
	}
}

// perOp runs f for n iterations on b and returns the nanoseconds per
// iteration that f timed.
func perOp(b *testing.B, f func(*testing.B), n int) float64 {
	runtime.GC()
	b.N = n
	b.ResetTimer()
	b.StartTimer()
	f(b)
	return float64(b.Elapsed()) / float64(n)
}
