package provider

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// onWorker runs one exchange on q and returns the goroutine it ran on.
func onWorker(t *testing.T, q *exchangePool) string {
	t.Helper()
	var id string
	if err := q.do(context.Background(), func() { id = goid() }); err != nil {
		t.Fatal(err)
	}
	return id
}

// waitLive waits until q counts want workers.
func waitLive(t *testing.T, q *exchangePool, want int32) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); q.live.Load() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("pool holds %d workers, want %d", q.live.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// newWaitingPool returns a pool of size workers once they have had the
// time to start and wait: until a worker first runs, an exchange finds it
// busy and starts another.
func newWaitingPool(size int) *exchangePool {
	q := newExchangePool(size)
	time.Sleep(20 * time.Millisecond)
	return q
}

// TestExchangePoolReusesWorker: exchanges run one after another reuse
// the pool's workers, which is the point of the pool, and none runs on
// the caller's goroutine. While one worker finishes, the other is
// waiting, so a worker is started beside them only if both are slow to
// get back (a descheduled worker), and it leaves after its exchange.
func TestExchangePoolReusesWorker(t *testing.T) {
	q := newWaitingPool(2)
	defer q.close()
	ids := make(map[string]bool)
	for i := 0; i < 50; i++ {
		ids[onWorker(t, q)] = true
	}
	if len(ids) > 5 || ids[goid()] {
		t.Fatalf("50 sequential exchanges ran on %d goroutines", len(ids))
	}
	waitLive(t, q, 2)
}

// TestExchangePoolAbandonsHungWorker: a waiter that times out gets its
// error at once, the next exchange runs on another worker while the hung
// one is still stuck, and once the hung one returns the pool is back to
// its size.
func TestExchangePoolAbandonsHungWorker(t *testing.T) {
	q := newExchangePool(1)
	defer q.close()
	hungOn, release := make(chan string, 1), make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := q.do(ctx, func() { hungOn <- goid(); <-release })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung exchange returned %v", err)
	}
	if ranOn, hung := onWorker(t, q), <-hungOn; ranOn == hung {
		t.Fatalf("the next exchange ran on the hung worker %s", hung)
	}
	close(release)
	waitLive(t, q, 1)
}

// TestExchangePoolNeverQueues: with every worker busy an exchange starts
// another instead of waiting for one.
func TestExchangePoolNeverQueues(t *testing.T) {
	q := newExchangePool(1)
	defer q.close()
	busy, release := make(chan struct{}), make(chan struct{})
	go q.do(context.Background(), func() { close(busy); <-release })
	<-busy
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.do(ctx, func() {}); err != nil {
		t.Fatalf("an exchange waited behind a busy worker: %v", err)
	}
}

// TestExchangePoolLivesUntilClose: the workers stay however long the
// pool idles, and all of them leave on close, a busy one once its
// exchange returns; an exchange after close still runs.
func TestExchangePoolLivesUntilClose(t *testing.T) {
	q := newWaitingPool(3)
	onWorker(t, q)
	time.Sleep(50 * time.Millisecond)
	if n := q.live.Load(); n != 3 {
		t.Fatalf("an idle pool of 3 holds %d workers", n)
	}
	busy, release := make(chan struct{}), make(chan struct{})
	go q.do(context.Background(), func() { close(busy); <-release })
	<-busy
	q.close()
	waitLive(t, q, 1)
	close(release)
	waitLive(t, q, 0)
	onWorker(t, q)
	waitLive(t, q, 0)
}

// TestProviderCloseStopsExchangeWorkers: a provider starts one exchange
// worker per fan-out slot and stops them all on Close.
func TestProviderCloseStopsExchangeWorkers(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{EpochWorkers: 5})
	if n := p.exchanges.live.Load(); n != 5 {
		t.Fatalf("provider with EpochWorkers 5 started %d exchange workers", n)
	}
	p.Close()
	waitLive(t, p.exchanges, 0)
}
