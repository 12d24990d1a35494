package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", Workers(0))
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("negative worker counts must normalize to GOMAXPROCS")
	}
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatal("positive worker counts must pass through")
	}
}

func TestForCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 257
		var hits [n]atomic.Int32
		For(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForSerialOrder(t *testing.T) {
	// workers=1 must run inline and in order.
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestForEmpty(t *testing.T) {
	For(4, 0, func(int) { t.Fatal("fn called for n=0") })
	For(4, -1, func(int) { t.Fatal("fn called for n<0") })
}

func TestForErrLowestIndexWins(t *testing.T) {
	wantErr := errors.New("item 3")
	err := ForErr(8, 10, func(i int) error {
		switch i {
		case 3:
			return wantErr
		case 7:
			return fmt.Errorf("item 7")
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("ForErr = %v, want the lowest-indexed error", err)
	}
	if err := ForErr(8, 10, func(int) error { return nil }); err != nil {
		t.Fatalf("ForErr on success = %v", err)
	}
}

// TestForWorkerPanicReachesCaller checks that a worker goroutine's panic
// is re-raised on the calling goroutine, where a recover catches it, and
// only after every worker has stopped running items.
func TestForWorkerPanicReachesCaller(t *testing.T) {
	var running atomic.Int32
	defer func() {
		r := recover()
		if r != "item 5" {
			t.Fatalf("recovered %v, want the worker's panic value", r)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%d items still running when the panic reached the caller", n)
		}
	}()
	ForWorker(2, 100, func(_, i int) {
		running.Add(1)
		defer running.Add(-1)
		if i == 5 {
			panic("item 5")
		}
	})
	t.Fatal("ForWorker returned normally after a panicking item")
}
