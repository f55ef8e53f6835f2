package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// decorators in sut.go and by the workload loops around their own phases.
// The layer is the part of Name before the first dot.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // the span that caused this one
	Op     int64  `json:"op,omitempty"`     // root span of the workload op it serves
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // (user, attempt, position) where no context flows
	Start  int64  `json:"start_ns"`      // since the tracer's origin
	End    int64  `json:"end_ns"`
	Err    bool   `json:"err,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"` // encoded size, storage appends only
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) ms() float64        { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off (set-up, untimed sections), records nothing, so the
// workload loops call it unconditionally.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

type ctxSpanKey struct{}

// spanRef is what a context carries: the innermost open span and its op.
type spanRef struct{ id, op int64 }

// openSpan is a span that has started; end records it.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span under the span ctx carries, if any, and returns a
// context carrying the new one. Where the system passes ctx through
// (in-process, client to provider to HSM) this links child to parent
// exactly; elsewhere link() falls back to keys and containment.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, openSpan) {
	if t == nil || !t.on.Load() {
		return ctx, openSpan{}
	}
	o := openSpan{t: t, s: span{ID: t.next.Add(1), Name: name}}
	if ref, ok := ctx.Value(ctxSpanKey{}).(spanRef); ok {
		o.s.Parent, o.s.Op = ref.id, ref.op
	} else if strings.HasPrefix(name, "op.") {
		o.s.Op = o.s.ID
	}
	o.s.Start = int64(time.Since(t.origin))
	return context.WithValue(ctx, ctxSpanKey{}, spanRef{id: o.s.ID, op: o.s.Op}), o
}

// at records a finished span from times the caller already took, for phases
// the workload loop measures anyway (begin, gate wait, share phase).
func (t *tracer) at(ctx context.Context, name string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{ID: t.next.Add(1), Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	if ref, ok := ctx.Value(ctxSpanKey{}).(spanRef); ok {
		s.Parent, s.Op = ref.id, ref.op
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recording is false for the no-op span a disabled tracer hands out.
func (o openSpan) recording() bool { return o.t != nil }

func (o openSpan) end(err error) { o.endWith(err, "", 0) }

func (o openSpan) endWith(err error, key string, bytes int64) {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.origin))
	o.s.Err = err != nil
	o.s.Key, o.s.Bytes = key, bytes
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// count is how many spans are recorded so far; with bytesSince it lets a
// caller read back what one lone op recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// bytesSince sums Bytes over the spans named name recorded after mark.
func (t *tracer) bytesSince(mark int, name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, s := range t.spans[mark:] {
		if s.Name == name {
			n += s.Bytes
		}
	}
	return n
}

// writeSpans dumps every span, one array, for offline inspection.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceView is the linked trace the per-layer metrics are computed from.
type traceView struct {
	spans    []span // sorted by start
	children map[int64][]int
	windows  []int // indexes of the spans that bound one epoch each
}

func isLogSpan(name string) bool {
	return name == "hsm.choose_chunks" || name == "hsm.handle_audit" || name == "hsm.handle_commit"
}

// link resolves the parents the context could not carry and returns the
// view. Three rules, in order of exactness:
//
//  1. key: an HSM recovery span reached over the wire carries the same
//     (user, attempt, position) key as the client-side relay span;
//  2. epoch: epochs are serial (one runs at a time under the scheduler's
//     commit lock), so every choose/audit/commit span belongs to the epoch
//     interval that contains it. Where the workload calls RunEpoch that
//     interval is the run_epoch span; otherwise it is inferred: a new
//     epoch starts at the first choose_chunks after a handle_commit;
//  3. containment: a storage call has no context and no key, so its parent
//     is the innermost provider or HSM span that contains it in time. With
//     concurrent ops this can pick a sibling op's span, but only one that
//     was inside the same storage call at the same moment.
func (t *tracer) link() *traceView {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	byKey := make(map[string]int)
	for i, s := range spans {
		if s.Name == "provider.relay_recover" && s.Key != "" {
			byKey[s.Key] = i
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 && s.Key != "" && s.layer() == "hsm" {
			if p, ok := byKey[s.Key]; ok {
				s.Parent, s.Op = spans[p].ID, spans[p].Op
			}
		}
	}

	v := &traceView{children: make(map[int64][]int)}
	var runEpochs []int
	for i, s := range spans {
		if s.Name == "provider.run_epoch" {
			runEpochs = append(runEpochs, i)
		}
	}
	if len(runEpochs) > 0 {
		v.windows = runEpochs
	} else {
		// Infer one synthetic provider.epoch span per cluster of log spans.
		var cur *span
		sawCommit := false
		flush := func() {
			if cur != nil {
				spans = append(spans, *cur)
			}
		}
		for i := range spans {
			s := spans[i]
			if !isLogSpan(s.Name) {
				continue
			}
			if cur == nil || (sawCommit && s.Name == "hsm.choose_chunks") {
				flush()
				cur = &span{ID: t.next.Add(1), Name: "provider.epoch", Start: s.Start, End: s.End}
				sawCommit = false
			}
			if s.End > cur.End {
				cur.End = s.End
			}
			sawCommit = sawCommit || s.Name == "hsm.handle_commit"
		}
		flush()
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i, s := range spans {
			if s.Name == "provider.epoch" {
				v.windows = append(v.windows, i)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || !isLogSpan(s.Name) {
			continue
		}
		for _, w := range v.windows {
			if spans[w].Start <= s.Start && s.End <= spans[w].End {
				s.Parent, s.Op = spans[w].ID, spans[w].Op
				break
			}
		}
	}

	// Containment for what is left below the provider boundary.
	var hosts []int // candidate parents, in start order
	for i, s := range spans {
		if l := s.layer(); l == "provider" || l == "hsm" {
			hosts = append(hosts, i)
		}
	}
	const maxScan = 256 // hosts open at once are bounded by the harness's concurrency
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || (s.layer() != "storage" && s.layer() != "hsm") {
			continue
		}
		hi := sort.Search(len(hosts), func(k int) bool { return spans[hosts[k]].Start > s.Start })
		for k, scanned := hi-1, 0; k >= 0 && scanned < maxScan; k, scanned = k-1, scanned+1 {
			h := spans[hosts[k]]
			if hosts[k] != i && h.End >= s.End && h.layer() != s.layer() {
				s.Parent, s.Op = h.ID, h.Op
				break
			}
		}
	}

	v.spans = spans
	for i, s := range spans {
		if s.Parent != 0 {
			v.children[s.Parent] = append(v.children[s.Parent], i)
		}
	}
	return v
}

// breakdown says which layer each instant of an op's wall belongs to.
// An instant belongs to the deepest layer with a span open for this op at
// that instant: storage, else hsm, else provider, else the client itself.
// Parallel children count once (union), so the five parts sum to wall by
// construction; what the trace cannot explain shows up as wait, not as a
// silent gap.
type breakdown struct {
	wall     int64 // op interval minus harness-imposed queueing (gate_wait)
	client   int64 // no provider call open: client crypto and bookkeeping
	provider int64 // a provider call open, nothing below it: provider work (and wire, on TCP)
	wait     int64 // parked in wait_commit while no epoch was running: batching and queueing
	hsm      int64
	storage  int64
}

func (b *breakdown) add(o breakdown) {
	b.wall += o.wall
	b.client += o.client
	b.provider += o.provider
	b.wait += o.wait
	b.hsm += o.hsm
	b.storage += o.storage
}

// residualPct is the share of op wall no layer's self time covers.
func (b breakdown) residualPct() float64 {
	if b.wall == 0 {
		return 0
	}
	return 100 * float64(b.wall-b.client-b.provider-b.hsm-b.storage) / float64(b.wall)
}

// descend collects, by layer, the intervals of every span under root,
// clipped to root. A commit wait also takes in the epochs that ran while
// it was parked: those epochs are what it was blocked on.
func (v *traceView) descend(root int, byLayer map[string][]interval) {
	lo, hi := v.spans[root].Start, v.spans[root].End
	var walk func(i int)
	walk = func(i int) {
		s := v.spans[i]
		if iv, ok := s.interval().clip(lo, hi); ok && i != root {
			l := s.layer()
			if s.Name == "client.gate_wait" {
				l = "gate"
			}
			byLayer[l] = append(byLayer[l], iv)
			if s.Name == "provider.wait_commit" {
				byLayer["commit_wait"] = append(byLayer["commit_wait"], iv)
			}
		}
		for _, c := range v.children[s.ID] {
			walk(c)
		}
		if s.Name == "provider.wait_commit" {
			for _, w := range v.windows {
				if v.spans[w].Start < s.End && s.Start < v.spans[w].End {
					if iv, ok := v.spans[w].interval().clip(lo, hi); ok {
						byLayer["epoch"] = append(byLayer["epoch"], iv)
					}
					for _, c := range v.children[v.spans[w].ID] {
						walk(c)
					}
				}
			}
		}
	}
	walk(root)
}

func (v *traceView) breakdownOf(root int) breakdown {
	byLayer := make(map[string][]interval)
	v.descend(root, byLayer)
	r := v.spans[root]
	cat := func(ls ...string) []interval {
		var out []interval
		for _, l := range ls {
			out = append(out, byLayer[l]...)
		}
		return out
	}
	var b breakdown
	b.wall = r.End - r.Start - unionLen(byLayer["gate"])
	b.storage = unionLen(byLayer["storage"])
	b.hsm = unionLen(cat("storage", "hsm")) - b.storage
	below := unionLen(cat("storage", "hsm", "provider"))
	// Parked = inside a commit wait, outside every epoch and every span
	// below: |W − X| = |W ∪ X| − |X|.
	busy := cat("storage", "hsm", "epoch")
	b.wait = unionLen(append(busy, byLayer["commit_wait"]...)) - unionLen(busy)
	b.provider = below - b.storage - b.hsm - b.wait
	if r.layer() == "provider" { // the op is itself a provider call (run_epoch)
		b.provider = b.wall - b.storage - b.hsm
		return b
	}
	b.client = b.wall - below
	return b
}
