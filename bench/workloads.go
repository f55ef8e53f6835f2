package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	mrand "math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// shape is the full parameter set of a workload: the fleet it runs on and
// the load it offers. Shapes are fixed here, not by flags, so two runs of
// one commit, and the runs of two commits, always measure the same thing.
type shape struct {
	HSMs      int `json:"hsms"`
	Cluster   int `json:"cluster"`
	Threshold int `json:"threshold"`
	BFEM      int `json:"bfe_m"`
	BFEK      int `json:"bfe_k"`
	// Scheme is fixed: sut.go builds every fleet with it.
	Scheme    string `json:"scheme"`
	Storage   string `json:"storage"`   // "none" (volatile provider) or "wal" (FileEngine, fsync)
	Transport string `json:"transport"` // "inproc" or "tcp"
	// Provider engine: 0 keeps the repo's defaults (2 ms, 256).
	BatchWindowMS int `json:"batch_window_ms"`
	MaxBatch      int `json:"max_batch"`
	DeadHSMs      int `json:"dead_hsms"`

	Loop            string  `json:"loop"`              // "closed" or "open-fixed-clock"
	Users           int     `json:"users"`             // preloaded users (per round, for recover_batched)
	InsertsPerEpoch int     `json:"inserts_per_epoch"` // epoch_fleet
	Workers         int     `json:"workers"`           // closed-loop clients, or the share-phase gate width
	Conns           int     `json:"conns"`             // client connections over TCP
	RatePerS        float64 `json:"rate_per_s"`        // open loop: arrivals per second
	MixRecover      float64 `json:"mix_recover"`
	MixBackup       float64 `json:"mix_backup"`
	MixRead         float64 `json:"mix_read"`
	InFlightCap     int     `json:"in_flight_cap"`
	MsgBytes        int     `json:"msg_bytes"`
	// LimitMS is the latency limit per op kind; a failed or refused op
	// misses it.
	LimitMS map[string]float64 `json:"limit_ms"`
}

const schemeName = "bls12381-multisig/rfc9380"

// nproc sizes the closed loops: enough clients to keep every core busy and
// no more, so queueing inside the harness does not pose as latency.
var nproc = runtime.GOMAXPROCS(0)

// shapes are the production shapes. They are the issue's shapes scaled so
// that three set-ups and one timed section fit the run budget (see
// README.md, "Sizing"): cluster and threshold are the paper's 40 and 20,
// fleets are smaller, and BFE keys are as large as the punctures of one run
// need and no larger, because key generation is the whole of set-up.
var shapes = map[string]shape{
	"recover_batched": {
		HSMs: 100, Cluster: 40, Threshold: 20, BFEM: 2048, BFEK: 4,
		Scheme: schemeName, Storage: "none", Transport: "inproc",
		BatchWindowMS: 1000, MaxBatch: 64,
		Loop: "closed", Users: 64, Workers: nproc, MsgBytes: 32,
		LimitMS: map[string]float64{"recover": 3000},
	},
	"epoch_fleet": {
		HSMs: 128, Cluster: 40, Threshold: 20, BFEM: 64, BFEK: 4,
		Scheme: schemeName, Storage: "none", Transport: "inproc",
		DeadHSMs: 2,
		Loop:     "closed", InsertsPerEpoch: 64, Workers: 1,
		LimitMS: map[string]float64{"epoch": 2000},
	},
	"backup_wal": {
		HSMs: 100, Cluster: 40, Threshold: 20, BFEM: 256, BFEK: 4,
		Scheme: schemeName, Storage: "wal", Transport: "inproc",
		Loop: "closed", Workers: nproc, MsgBytes: 32,
		LimitMS: map[string]float64{"backup": 100},
	},
	"mixed_tcp_wal": {
		HSMs: 16, Cluster: 8, Threshold: 4, BFEM: 256, BFEK: 4,
		Scheme: schemeName, Storage: "wal", Transport: "tcp",
		Loop: "open-fixed-clock", Users: 32, Conns: nproc, RatePerS: 4,
		MixRecover: 0.5, MixBackup: 0.25, MixRead: 0.25, InFlightCap: 8, MsgBytes: 32,
		LimitMS: map[string]float64{"recover": 1000, "backup": 100, "read": 20},
	},
}

// workloadOrder is the order -all runs them in and BENCHMARK.json lists them.
var workloadOrder = []string{"recover_batched", "epoch_fleet", "backup_wal", "mixed_tcp_wal"}

// primaryOp is the op kind whose latency is the workload's op_p50_ref_ms.
var primaryOp = map[string]string{
	"recover_batched": "recover",
	"epoch_fleet":     "epoch",
	"backup_wal":      "backup",
	"mixed_tcp_wal":   "recover",
}

// env is what one run hands its workload.
type env struct {
	ctx     context.Context
	name    string
	seed    int64
	scratch string // directory inside the checkout for WALs
	corrupt bool   // tests only: spoil one expected output, so the check must fail
}

func (e *env) rng(stream int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(e.seed*1000003 + stream))
}

// state is a provisioned fleet with its preloaded users.
type state struct {
	fl    *fleet
	users []*user
	msgs  [][]byte // what each preloaded user last backed up
}

func seededBytes(r *mrand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func seededPIN(r *mrand.Rand) string { return fmt.Sprintf("%06d", r.Intn(1000000)) }

// setup provisions the fleet and preloads sh.Users enrolled users. It is
// the whole of what setup_s times.
func setup(e *env, sh shape, tr *tracer, instance int) (*state, error) {
	fl, err := buildFleet(sh, tr, e.scratch)
	if err != nil {
		return nil, err
	}
	st := &state{fl: fl, users: make([]*user, sh.Users), msgs: make([][]byte, sh.Users)}
	r := e.rng(int64(100 + instance))
	for i := range st.users {
		if st.users[i], err = fl.newUser(fmt.Sprintf("user-%d-%d-%04d", e.seed, instance, i), seededPIN(r)); err != nil {
			fl.close()
			return nil, err
		}
		st.msgs[i] = seededBytes(r, sh.MsgBytes)
	}
	if err := st.backupAll(e.ctx, sh.Workers); err != nil {
		fl.close()
		return nil, err
	}
	return st, nil
}

// backupAll enrols (or re-enrols) every preloaded user with its current
// message, a few at a time.
func (st *state) backupAll(ctx context.Context, width int) error {
	if width < 1 {
		width = 1
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		bad  error
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(st.users) {
					return
				}
				if err := st.users[i].backup(ctx, st.msgs[i]); err != nil {
					mu.Lock()
					bad = err
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return bad
}

// outcome is what a timed section measured, before it is turned into
// named metrics.
type outcome struct {
	mu        sync.Mutex
	lat       map[string]samples // ms per successful op, by op kind
	phase     map[string]samples // other raw samples: begin, share_phase, round, gen_lag …
	counts    map[string]float64
	attempted int // ops offered, refused ones included
	failed    int // errors, refusals and wrong outputs
	within    int // succeeded inside the kind's limit
	checks    int // correctness checks that ran
	wrong     int // correctness checks that failed
	firstErr  error
	wallS     float64 // timed wall
	cpuMS     float64 // process CPU over the timed wall
	perS      float64 // the workload's throughput, as README.md defines it
}

func newOutcome() *outcome {
	return &outcome{lat: map[string]samples{}, phase: map[string]samples{}, counts: map[string]float64{}}
}

func (o *outcome) completed() int {
	n := 0
	for _, s := range o.lat {
		n += len(s)
	}
	return n
}

// record tallies one offered op. ms is its latency; err covers failure and
// refusal alike.
func (o *outcome) record(kind string, ms float64, limit float64, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("%s: %w", kind, err)
		}
		return
	}
	o.lat[kind] = append(o.lat[kind], ms)
	if ms <= limit {
		o.within++
	}
}

// check tallies one correctness check. The caller also records the op
// whose output was wrong as failed.
func (o *outcome) check(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checks++
	if err != nil {
		o.wrong++
		if o.firstErr == nil {
			o.firstErr = fmt.Errorf("check: %w", err)
		}
	}
}

func (o *outcome) sample(name string, v float64) {
	o.mu.Lock()
	o.phase[name] = append(o.phase[name], v)
	o.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measure runs the named workload's timed section for about seconds.
func measure(e *env, st *state, tr *tracer, seconds float64) (*outcome, error) {
	switch e.name {
	case "recover_batched":
		return measureRecoverBatched(e, st, tr, seconds)
	case "epoch_fleet":
		return measureEpochFleet(e, st, tr, seconds)
	case "backup_wal":
		return measureBackupWAL(e, st, tr, seconds)
	case "mixed_tcp_wal":
		return measureMixed(e, st, tr, seconds, st.fl.sh.RatePerS)
	}
	return nil, fmt.Errorf("unknown workload %q", e.name)
}

// Reference bursts per untimed gap of the closed loops (host.go, refBurst):
// enough that the run's median burst rests on three dozen samples or more.
const (
	refPerRound = 5 // recover_batched: about eight rounds a run
	refPerSlice = 3 // backup_wal: a slice a second
)

// roomFor reports whether most of another cycle (a timed op plus its
// untimed preparation) fits in what is left of the section, so a section of
// whole cycles ends within half a cycle of seconds, early or late.
func roomFor(began time.Time, seconds float64, cycle time.Duration) bool {
	return seconds-time.Since(began).Seconds() >= cycle.Seconds()/2
}

// recoverOnce is one recovery through the public client API: Begin (parks
// until the epoch holding its log entry commits), the share phase behind
// the gate, Finish, and the comparison with what was backed up.
func recoverOnce(ctx context.Context, tr *tracer, o *outcome, u *user, want []byte, gate chan struct{}) (begin, share time.Duration, err error) {
	ctx, op := tr.begin(ctx, "op.recover")
	start := time.Now()
	s, err := u.begin(ctx)
	beginEnd := time.Now()
	if err != nil {
		op.end(err)
		return 0, 0, err
	}
	if gate != nil {
		gate <- struct{}{}
	}
	shareStart := time.Now()
	s.collect(ctx) // a few failed members are fine while a threshold answers
	got, err := s.finish(ctx)
	end := time.Now()
	if gate != nil {
		<-gate
	}
	op.end(err)
	tr.at(ctx, "client.begin", start, beginEnd)
	tr.at(ctx, "client.gate_wait", beginEnd, shareStart)
	tr.at(ctx, "client.share_phase", shareStart, end)
	if err == nil {
		if !bytes.Equal(got, want) {
			err = fmt.Errorf("recovered %d bytes that differ from the backup of %s", len(got), u.name())
		}
		o.check(err)
	}
	return beginEnd.Sub(start), end.Sub(shareStart), err
}

// measureRecoverBatched: closed loop. Each round, every preloaded user
// calls Begin at once; the provider's MaxBatch equals the user count, so
// exactly one epoch commits them all; share phases then run a few at a time
// through the gate. Between rounds the users back up fresh messages,
// untimed and untraced, because a recovery punctures its ciphertext.
func measureRecoverBatched(e *env, st *state, tr *tracer, seconds float64) (*outcome, error) {
	o, sh := newOutcome(), st.fl.sh
	limit := sh.LimitMS["recover"]
	gate := make(chan struct{}, sh.Workers)
	r := e.rng(2)
	began := time.Now()
	var cycle time.Duration
	for round := 0; ; round++ {
		if round > 0 && !roomFor(began, seconds, cycle) {
			break
		}
		cycleStart := time.Now()
		for i := 0; i < refPerRound; i++ {
			refBurst(o, sh.Workers)
		}
		roundStart, cpu0 := time.Now(), cpuTime()
		var wg sync.WaitGroup
		for i := range st.users {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				want := st.msgs[i]
				if e.corrupt && round == 0 && i == 0 {
					want = append([]byte("x"), want...)
				}
				start := time.Now()
				begin, share, err := recoverOnce(e.ctx, tr, o, st.users[i], want, gate)
				o.record("recover", ms(time.Since(start)), limit, err)
				if err == nil {
					o.sample("begin_ms", ms(begin))
					o.sample("share_phase_ms", ms(share))
				}
			}(i)
		}
		wg.Wait()
		roundWall := time.Since(roundStart)
		o.cpuMS += ms(cpuTime() - cpu0)
		o.wallS += roundWall.Seconds()
		o.sample("round_ms", ms(roundWall))

		tr.enable(false)
		for i := range st.msgs {
			st.msgs[i] = seededBytes(r, sh.MsgBytes)
		}
		err := st.backupAll(e.ctx, sh.Workers)
		tr.enable(true)
		if err != nil {
			return o, err
		}
		cycle = time.Since(cycleStart)
	}
	o.perS = float64(len(o.lat["recover"])) / o.wallS
	return o, nil
}

// measureEpochFleet: closed loop of whole epochs. Fresh users' attempts are
// inserted untimed; the timed op is Provider.RunEpoch over them.
func measureEpochFleet(e *env, st *state, tr *tracer, seconds float64) (*outcome, error) {
	o, sh := newOutcome(), st.fl.sh
	limit := sh.LimitMS["epoch"]
	r := e.rng(3)
	began := time.Now()
	var cycle time.Duration
	for epoch := 0; ; epoch++ {
		if epoch > 0 && !roomFor(began, seconds, cycle) {
			break
		}
		cycleStart := time.Now()
		refBurst(o, nproc) // the epoch's fan-out runs on every core
		for i := 0; i < sh.InsertsPerEpoch; i++ {
			name := fmt.Sprintf("attempt-%d-%d-%d", e.seed, epoch, i)
			if err := st.fl.insertAttempt(e.ctx, name, seededBytes(r, 32)); err != nil {
				return o, err
			}
		}
		ctx, op := tr.begin(e.ctx, "op.epoch")
		start, cpu0 := time.Now(), cpuTime()
		err := st.fl.runEpoch(ctx)
		wall := time.Since(start)
		op.end(err)
		o.cpuMS += ms(cpuTime() - cpu0)
		o.wallS += wall.Seconds()
		if err != nil {
			o.record("epoch", ms(wall), limit, err)
			return o, err
		}
		err = st.fl.checkDigests()
		if e.corrupt && epoch == 0 {
			err = fmt.Errorf("digest check corrupted on request")
		}
		o.check(err)
		o.record("epoch", ms(wall), limit, err)
		cycle = time.Since(cycleStart)
	}
	o.perS = 1000 / o.lat["epoch"].median()
	return o, nil
}

// measureBackupWAL: closed loop of sh.Workers writers; each op enrols a
// fresh user and backs up one seeded message, acknowledged after fsync. The
// writers run in slices of a second, with reference bursts between slices.
func measureBackupWAL(e *env, st *state, tr *tracer, seconds float64) (*outcome, error) {
	o, sh := newOutcome(), st.fl.sh
	limit := sh.LimitMS["backup"]
	slice := time.Duration(min(1, seconds) * float64(time.Second))
	rngs := make([]*mrand.Rand, sh.Workers)
	for w := range rngs {
		rngs[w] = e.rng(int64(10 + w))
	}
	var next atomic.Int64
	wal0 := st.fl.durableBytes()
	began := time.Now()
	var cycle time.Duration
	for n := 0; n == 0 || roomFor(began, seconds, cycle); n++ {
		cycleStart := time.Now()
		for i := 0; i < refPerSlice; i++ {
			refBurst(o, sh.Workers)
		}
		var wg sync.WaitGroup
		start, cpu0 := time.Now(), cpuTime()
		deadline := start.Add(slice)
		for w := 0; w < sh.Workers; w++ {
			wg.Add(1)
			go func(r *mrand.Rand) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					n := next.Add(1)
					name, pin, msg := fmt.Sprintf("writer-%d-%d", e.seed, n), seededPIN(r), seededBytes(r, sh.MsgBytes)
					ctx, op := tr.begin(e.ctx, "op.backup")
					t0 := time.Now()
					u, err := st.fl.newUser(name, pin)
					if err == nil {
						err = u.backup(ctx, msg)
					}
					lat := time.Since(t0)
					op.end(err)
					if err == nil && n%100 == 1 {
						err = u.checkStored(e.ctx, sh.Cluster)
						if e.corrupt && n == 1 {
							err = fmt.Errorf("read-back check corrupted on request")
						}
						o.check(err)
					}
					o.record("backup", ms(lat), limit, err)
				}
			}(rngs[w])
		}
		wg.Wait()
		o.wallS += time.Since(start).Seconds()
		o.cpuMS += ms(cpuTime() - cpu0)
		cycle = time.Since(cycleStart)
	}
	done := len(o.lat["backup"])
	o.perS = float64(done) / o.wallS
	if done > 0 {
		o.counts["wal_bytes_per_backup"] = float64(st.fl.durableBytes()-wal0) / float64(done)
	}
	return o, nil
}

// arrival is one scheduled op of the open loop.
type arrival struct {
	due  time.Duration
	kind string
}

// schedule lays out the open loop: arrivals on a fixed clock at rate per
// second for the whole window, rate × seconds of them. Recoveries take the
// shape's share of the slots, spaced evenly (every other slot for a half);
// backups and reads fill the rest in an order the seed shuffles. The issue
// asked for Poisson arrivals. A recovery here takes about three quarters of
// the gap between two arrivals, so which of a run's thirty recoveries
// happened to come back to back and overlap decided their median: 28% and
// 44% spread between seeds under Poisson arrivals, still 16% with a shuffled
// order on a fixed clock (README.md, "Host speed"). Now every seed offers the
// same load in the same rhythm, and still never waits for a completion.
func schedule(r *mrand.Rand, sh shape, rate, seconds float64) []arrival {
	n := int(math.Round(rate * seconds))
	total := sh.MixRecover + sh.MixBackup + sh.MixRead
	out := make([]arrival, n)
	// recoveries(i) of the first i slots are recoveries, the first slot among them.
	recoveries := func(i int) float64 { return math.Ceil(float64(i)*sh.MixRecover/total - 1e-9) }
	var rest []int
	for i := range out {
		out[i].due = time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
		if recoveries(i+1) > recoveries(i) {
			out[i].kind = "recover"
		} else {
			rest = append(rest, i)
		}
	}
	backups := int(math.Round(float64(len(rest)) * sh.MixBackup / (sh.MixBackup + sh.MixRead)))
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for k, i := range rest {
		out[i].kind = "read"
		if k < backups {
			out[i].kind = "backup"
		}
	}
	return out
}

var errRefused = fmt.Errorf("refused: in-flight cap reached or no idle user")

// measureMixed: open loop over the daemon stack. Arrivals come on their
// schedule whether or not earlier ops have finished, and latency runs from
// the scheduled arrival, so a stall is charged to every op it delays. An
// arrival that finds the in-flight cap full, or (for a recovery) no idle
// preloaded user, is refused and counts as failed.
func measureMixed(e *env, st *state, tr *tracer, seconds, rate float64) (*outcome, error) {
	o, sh := newOutcome(), st.fl.sh
	plan := schedule(e.rng(4), sh, rate, seconds)
	inFlight := make(chan struct{}, sh.InFlightCap)
	idle := make(chan int, len(st.users))
	for i := range st.users {
		idle <- i
	}
	var (
		wg      sync.WaitGroup
		enrolls atomic.Int64
		bursts  time.Duration
	)
	start, cpu0 := time.Now(), cpuTime()
	for n, a := range plan {
		time.Sleep(time.Until(start.Add(a.due)))
		due := start.Add(a.due)
		o.sample("gen_lag_ms", ms(time.Since(due)))
		select {
		case inFlight <- struct{}{}:
		default:
			o.record(a.kind, 0, 0, errRefused)
			continue
		}
		target := -1
		if a.kind == "recover" {
			select {
			case target = <-idle:
			default:
				<-inFlight
				o.record(a.kind, 0, 0, errRefused)
				continue
			}
		}
		wg.Add(1)
		go func(n int, a arrival, target int) {
			defer wg.Done()
			defer func() { <-inFlight }()
			r := e.rng(int64(1000 + n))
			switch a.kind {
			case "recover":
				want := st.msgs[target]
				if e.corrupt && n == 0 {
					want = append([]byte("x"), want...)
				}
				begin, share, err := recoverOnce(e.ctx, tr, o, st.users[target], want, nil)
				o.record("recover", ms(time.Since(due)), sh.LimitMS["recover"], err)
				if err == nil {
					o.sample("begin_ms", ms(begin))
					o.sample("share_phase_ms", ms(share))
				}
				// The recovery punctured the ciphertext: re-enrol at once,
				// as a backup op of its own.
				st.msgs[target] = seededBytes(r, sh.MsgBytes)
				ctx, op := tr.begin(e.ctx, "op.backup")
				t0 := time.Now()
				err = st.users[target].backup(ctx, st.msgs[target])
				op.end(err)
				o.record("backup", ms(time.Since(t0)), sh.LimitMS["backup"], err)
				idle <- target
			case "backup":
				name := fmt.Sprintf("enrol-%d-%d", e.seed, enrolls.Add(1))
				ctx, op := tr.begin(e.ctx, "op.backup")
				u, err := st.fl.newUser(name, seededPIN(r))
				if err == nil {
					err = u.backup(ctx, seededBytes(r, sh.MsgBytes))
				}
				op.end(err)
				o.record("backup", ms(time.Since(due)), sh.LimitMS["backup"], err)
			case "read":
				ctx, op := tr.begin(e.ctx, "op.read")
				err := st.fl.readProbe(ctx, st.users[r.Intn(len(st.users))].name())
				op.end(err)
				o.record("read", ms(time.Since(due)), sh.LimitMS["read"], err)
			}
		}(n, a, target)
		// One burst on the generator's own goroutine, in the gap before
		// the next arrival: the load leaves a core idle most of the time.
		bursts += refBurst(o, 1)
	}
	wg.Wait()
	o.wallS = time.Since(start).Seconds()
	// A burst is pure computation on one thread: its wall is its CPU.
	o.cpuMS = ms(cpuTime() - cpu0 - bursts)
	o.perS = float64(o.completed()) / o.wallS
	o.counts["offered_per_s"] = float64(len(plan)) / seconds
	return o, nil
}
