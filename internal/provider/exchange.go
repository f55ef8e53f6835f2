package provider

import (
	"context"
	"sync/atomic"
)

// exchangePool runs the epoch's per-HSM exchanges on goroutines that live
// as long as the provider. An exchange's goroutine grows its stack in the
// HSM's crypto (in-process HSMs) or the transport; a goroutine started
// per exchange grew it afresh every time, where a pool worker keeps it
// for the next exchange, however far apart the epochs fall.
//
// The pool starts as many workers as the epoch fan-out is wide
// (EngineConfig.EpochWorkers, 16 when unset) and keeps them until
// Provider.Close. An exchange that finds no worker idle starts one, so
// none ever waits for a worker; a worker finishing while the pool holds
// more than its size leaves. A worker stuck in a hung HSM is abandoned by
// its waiter at the timeout, and the next exchange starts its
// replacement; the stuck one leaves once its HSM call returns.
type exchangePool struct {
	jobs chan func() // unbuffered: a send succeeds only to an idle worker
	quit chan struct{}
	size int32
	live atomic.Int32
}

func newExchangePool(size int) *exchangePool {
	q := &exchangePool{jobs: make(chan func()), quit: make(chan struct{}), size: int32(size)}
	q.live.Store(q.size)
	for i := 0; i < size; i++ {
		go q.work(nil)
	}
	return q
}

// close makes every idle worker leave, and every busy one once its
// exchange returns.
func (q *exchangePool) close() { close(q.quit) }

// do runs fn on a worker and waits until it returns or ctx ends. On ctx's
// end it returns ctx's error at once; fn then finishes on its own, and its
// effects must not be read.
func (q *exchangePool) do(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	job := func() { fn(); close(done) }
	select {
	case q.jobs <- job:
	default:
		q.live.Add(1)
		go q.work(job)
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// work runs job, if any, and then every job it is handed, until the pool
// closes or holds more workers than its size.
func (q *exchangePool) work(job func()) {
	for {
		if job != nil {
			job()
		}
		if q.leave() {
			return
		}
		select {
		case job = <-q.jobs:
		case <-q.quit:
			q.live.Add(-1)
			return
		}
	}
}

// leave reports whether the calling worker is one too many, and if so
// counts it out.
func (q *exchangePool) leave() bool {
	for {
		n := q.live.Load()
		if n <= q.size {
			return false
		}
		if q.live.CompareAndSwap(n, n-1) {
			return true
		}
	}
}
