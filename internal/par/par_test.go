package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForOrderStable(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		n := 500
		out := make([]int, n)
		err := For(n, workers, func(i int) error {
			out[i] = i * i
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, out[i])
			}
		}
	}
}

func TestForLowestIndexErrorWins(t *testing.T) {
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := For(100, workers, func(i int) error {
			switch i {
			case 7:
				// Fail late, so that item 60 fails first whenever it
				// runs concurrently: the lower index must still win.
				time.Sleep(20 * time.Millisecond)
				return fmt.Errorf("item %d: %w", i, wantErr)
			case 60:
				return fmt.Errorf("item %d: %w", i, wantErr)
			}
			return nil
		}, nil)
		if err == nil || !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Item 7's error must win: it is always dispatched before any
		// later failing index can stop dispatch.
		if got := err.Error(); got != "item 7: boom" {
			t.Fatalf("workers=%d: err = %q, want item 7's", workers, got)
		}
	}
}

func TestForCancellation(t *testing.T) {
	enough := errors.New("enough")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := For(1000, workers, func(i int) error {
			ran.Add(1)
			return nil
		}, func(done, total int) error {
			if done >= 10 {
				return enough
			}
			return nil
		})
		if err != enough {
			t.Fatalf("workers=%d: err = %v, want the onDone error", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop dispatch (ran %d)", workers, n)
		}
	}
}

// TestForErrorStopsDispatch: once an item fails, only the items already
// in flight finish. Every other item is slow, so a For that kept
// dispatching would run far more than a handful.
func TestForErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4} {
		var ran atomic.Int64
		err := For(1000, workers, func(i int) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		}, nil)
		if err != boom {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if n := ran.Load(); n > int64(4+2*workers) {
			t.Fatalf("workers=%d: %d items ran after an error at index 3", workers, n)
		}
	}
}

// TestForFnErrorBeatsAbort: when an item fails and onDone also asks to
// stop, the item's error is the one returned.
func TestForFnErrorBeatsAbort(t *testing.T) {
	boom, stop := errors.New("boom"), errors.New("stop")
	for _, workers := range []int{1, 2, 4} {
		err := For(50, workers, func(i int) error {
			if i == 0 {
				time.Sleep(5 * time.Millisecond)
				return boom
			}
			return nil
		}, func(done, total int) error { return stop })
		if err != boom {
			t.Fatalf("workers=%d: err = %v, want the fn error", workers, err)
		}
	}
}

func TestForEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5} {
		err := For(0, workers, func(i int) error {
			t.Fatalf("workers=%d: fn called with %d", workers, i)
			return nil
		}, func(done, total int) error {
			t.Fatalf("workers=%d: onDone called", workers)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestForWorkerCounts checks, at workers ∈ {0, 1, 2, n+5}, that every
// index runs exactly once, onDone sees done = 1..n in order, and no
// more than the capped worker count runs at once.
func TestForWorkerCounts(t *testing.T) {
	const n = 7
	for _, workers := range []int{0, 1, 2, n + 5} {
		limit := workers
		if limit <= 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		if limit > n {
			limit = n
		}
		var (
			calls    [n]atomic.Int32
			inFlight atomic.Int32
			peak     atomic.Int32
			order    []int
			orderMu  sync.Mutex
			dones    []int
		)
		err := For(n, workers, func(i int) error {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			calls[i].Add(1)
			orderMu.Lock()
			order = append(order, i)
			orderMu.Unlock()
			time.Sleep(time.Millisecond)
			return nil
		}, func(done, total int) error {
			if total != n {
				t.Errorf("workers=%d: total = %d", workers, total)
			}
			dones = append(dones, done)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		for k, d := range dones {
			if d != k+1 {
				t.Fatalf("workers=%d: onDone sequence %v", workers, dones)
			}
		}
		if len(dones) != n {
			t.Fatalf("workers=%d: onDone called %d times", workers, len(dones))
		}
		if p := peak.Load(); int(p) > limit {
			t.Fatalf("workers=%d: %d items in flight, limit %d", workers, p, limit)
		}
		if limit == 1 {
			for k, i := range order {
				if i != k {
					t.Fatalf("workers=%d: inline order %v", workers, order)
				}
			}
		}
	}
}

// TestForNoLeak: For returns only after every goroutine it started has
// exited, whether dispatch stopped on an onDone abort or an fn error: no
// item is still running when it returns, and no goroutine outlives it.
func TestForNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	var active atomic.Int32
	slow := func(fail int) func(int) error {
		return func(i int) error {
			active.Add(1)
			defer active.Add(-1)
			time.Sleep(100 * time.Microsecond)
			if i == fail {
				return boom
			}
			return nil
		}
	}
	for trial := 0; trial < 20; trial++ {
		err := For(200, 8, slow(-1), func(done, total int) error {
			if done >= 3+trial {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("abort trial %d: err = %v", trial, err)
		}
		if a := active.Load(); a != 0 {
			t.Fatalf("abort trial %d: %d items still running after For returned", trial, a)
		}
		if err := For(200, 8, slow(3+trial), nil); err != boom {
			t.Fatalf("fn-error trial %d: err = %v", trial, err)
		}
		if a := active.Load(); a != 0 {
			t.Fatalf("fn-error trial %d: %d items still running after For returned", trial, a)
		}
	}
	// Allow the runtime a moment to reap finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}
