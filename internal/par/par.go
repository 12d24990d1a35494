// Package par provides the bounded worker pools behind every parallel
// path of the simulator: workgroup sharding in the functional engine,
// experiment-cell fan-out in the experiments registry, and the policy ×
// workload sweeps of the CLI tools. Work distribution is dynamic (an
// atomic cursor) so imbalanced items still fill the pool, but callers
// index results by item, so the *aggregation* order — and therefore every
// statistic — is independent of scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values below 1 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(k int) int {
	if k < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return k
}

// For runs fn(i) for every i in [0, n), fanned out across at most
// `workers` goroutines (normalized via Workers). It returns when all
// items are done. Items are claimed dynamically, so two calls may
// execute the same item on different goroutines — fn must only touch
// state owned by item i or state that is safe to share. A panic in fn
// reaches the caller (see ForWorker).
//
// With workers <= 1 (after normalization, i.e. Workers(k) == 1) or n <= 1
// the items run inline on the calling goroutine, in order; no goroutines
// are spawned. This makes worker-count 1 an exact serial execution, which
// the determinism tests rely on.
func For(workers, n int, fn func(i int)) {
	ForWorker(workers, n, func(_, i int) { fn(i) })
}

// ForWorker is For with the worker's pool slot exposed: fn(w, i) runs
// item i on worker w, where 0 <= w < min(Workers(workers), n). At most
// one item runs on a given w at a time, so fn may use w to index
// per-worker scratch state (e.g. reusable thread contexts) without
// locking.
//
// A panic in fn is re-raised on the calling goroutine with the same
// value, so a recover around the call sees it as if fn had run inline.
// Once an item panics, no worker claims another item, and the panic is
// re-raised after every worker has stopped.
func ForWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
					cursor.Store(int64(n)) // every later claim lands past the end
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForErr runs fn(i) for every i in [0, n) like For and returns the error
// of the lowest-indexed failing item (deterministic regardless of
// scheduling), or nil when every item succeeds. All items run even when
// some fail; workloads are cheap enough that early cancellation is not
// worth the plumbing.
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	For(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
