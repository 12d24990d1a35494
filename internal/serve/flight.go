package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// flight is one in-progress computation shared by every request that
// asked for the same content address. The computation runs under its own
// context, derived from the server's base context and cancelled when the
// last interested waiter walks away — one client disconnecting never
// aborts a run other clients are still waiting on, but an abandoned run
// stops at the next cancellation point instead of burning CPU.
type flight struct {
	done    chan struct{} // closed when result/err are set
	result  *response
	err     error
	waiters int // guarded by the group mutex
	cancel  context.CancelFunc

	// stages holds the leader-measured durations of the flight's inner
	// stages. Written only by the leader before done closes; waiters read
	// it after <-done, which orders the accesses.
	stages stageRecord
}

// flightGroup coalesces concurrent identical requests onto one flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
	// panics counts the computations that panicked: a panic unwinds past
	// every error count of the computation itself.
	panics *atomic.Int64
}

func newFlightGroup(panics *atomic.Int64) *flightGroup {
	return &flightGroup{m: map[string]*flight{}, panics: panics}
}

// join returns the flight for key, creating it if none is in progress.
// The caller is the leader when created is true and must then call
// fn exactly once via run. Every caller — leader included — must pair
// join with exactly one leave.
func (g *flightGroup) join(key string, base context.Context) (f *flight, created bool, runCtx context.Context) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		f.waiters++
		return f, false, nil
	}
	runCtx, cancel := context.WithCancel(base)
	f = &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.m[key] = f
	return f, true, runCtx
}

// leave drops one waiter. When the last waiter leaves an unfinished
// flight, its run context is cancelled so the computation can stop.
func (g *flightGroup) leave(key string, f *flight) {
	g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	g.mu.Unlock()
	if !last {
		return
	}
	select {
	case <-f.done:
	default:
		f.cancel()
	}
}

// run executes fn, publishes its result, and retires the flight so a
// later identical request starts fresh (a successful result will be in
// the response cache by then). A panic in fn becomes the flight's
// error, a 500 for its waiters, and counts once in panics; the flight
// still retires.
func (g *flightGroup) run(key string, f *flight, fn func() (*response, error)) {
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("simulation panicked: %v", p)
			g.panics.Add(1)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		f.cancel()
		close(f.done)
	}()
	f.result, f.err = fn()
}
