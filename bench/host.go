package main

import (
	"bufio"
	"crypto/ecdh"
	"crypto/sha256"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostInfo is the record the BENCH_N.json rows lacked: without it a delta
// between two files confounds the code with the machine.
type hostInfo struct {
	CPUModel    string  `json:"cpu_model"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitHead     string  `json:"git_head"`
	CalibStart  float64 `json:"host_calib_start_ms"`
	CalibEnd    float64 `json:"host_calib_end_ms"`
	HostCalibMS float64 `json:"host_calib_ms"` // mean of the two
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitHead:    "unknown", // the driver's checkout is not a git repository
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitHead = strings.TrimSpace(string(out))
	}
	return h
}

// calibBlocks × calibBlock = 64 MiB hashed per calibration. One block is
// reused so the calibration adds nothing to peak RSS.
const (
	calibBlock  = 1 << 20
	calibBlocks = 64
)

// hostCalib times SHA-256 over a fixed 64 MiB. It uses the standard library
// only, so no change to the repo can move it: when it differs between two
// sets of runs, the host changed, not the code.
func hostCalib() float64 {
	block := make([]byte, calibBlock)
	for i := range block {
		block[i] = byte(i)
	}
	start := time.Now()
	h := sha256.New()
	for i := 0; i < calibBlocks; i++ {
		h.Write(block)
	}
	h.Sum(nil)
	return ms(time.Since(start))
}

// A reference burst is refChunks chunks a core, each refIters rounds of a
// 6×6-limb multiply-accumulate (the instruction mix of the pure-Go field
// arithmetic under every pairing) and refECDH P-256 scalar multiplications
// from the standard library (what the share path and the client spend their
// time in): a quarter and three quarters of a chunk's time. No code of the
// repo is in it, so no change to the repo can move it. refMS is what one
// burst takes on the host the shapes were sized on when its neighbours are
// quiet; a "reference millisecond" is a refMS-th of a burst.
const (
	refIters  = 1250
	refECDH   = 3
	refChunks = 30
	refMS     = 8.0
)

var (
	refSink atomic.Uint64
	refKey  = refScalar(7)
	refPeer = refScalar(9).PublicKey()
)

func refScalar(k byte) *ecdh.PrivateKey {
	b := make([]byte, 32)
	b[31] = k
	key, err := ecdh.P256().NewPrivateKey(b)
	if err != nil {
		panic(err)
	}
	return key
}

func refChunk() {
	a := [6]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d, 0xd6e8feb86659fd93, 0x1a0111ea397fe69a}
	b := a
	for n := 0; n < refIters; n++ {
		var t [12]uint64
		for i := 0; i < 6; i++ {
			var carry uint64
			for j := 0; j < 6; j++ {
				hi, lo := bits.Mul64(a[i], b[j])
				var c uint64
				lo, c = bits.Add64(lo, t[i+j], 0)
				hi += c
				lo, c = bits.Add64(lo, carry, 0)
				t[i+j], carry = lo, hi+c
			}
			t[i+6] = carry
		}
		for i := range a {
			a[i] = t[i] ^ t[i+6]
		}
	}
	for i := 0; i < refECDH; i++ {
		shared, err := refKey.ECDH(refPeer)
		if err != nil {
			panic(err)
		}
		a[0] ^= uint64(shared[0])
	}
	refSink.Add(a[0])
}

// refBurst has width goroutines share width × refChunks chunks, first come
// first served as the provider's worker pool shares an epoch's HSMs, and
// records how long they took together. The workloads run bursts beside
// their timed ops, outside every op's timer, so that a run knows how fast
// the host was while it measured (README.md, "Host speed"): the end-to-end
// times are reported in reference milliseconds to take the host out.
func refBurst(o *outcome, width int) time.Duration {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	chunks := int64(width * refChunks)
	start := time.Now()
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= chunks {
				refChunk()
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	o.sample("ref_burst_ms", ms(d))
	return d
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
