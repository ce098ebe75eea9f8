// Package par is the one ordered fan-out of the pipeline: run an
// independent function over every index of [0, n) across a bounded set
// of goroutines, with the error and cancellation semantics of a
// sequential loop.
package par

import (
	"runtime"
	"sync"
)

// For calls fn(i) for every i in [0, n) across up to workers goroutines
// and returns once all of them have exited.
//
//   - workers <= 0 means GOMAXPROCS; the count is capped at n, and a
//     single worker runs inline on the caller's goroutine in index order.
//   - Indices are handed out in ascending order from one shared counter.
//     fn writes its result into index-addressed storage, which keeps the
//     collected results in order at any worker count.
//   - After the first fn error no new index is handed out; in-flight
//     calls finish, and For returns the error of the lowest failing
//     index — the error a sequential loop would have returned.
//   - onDone, when non-nil, is called serially after each successful
//     item with the number of items finished so far and n. A non-nil
//     return stops dispatch the same way, and For returns it unless an
//     fn call failed.
func For(n, workers int, fn func(i int) error, onDone func(done, total int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
			if onDone != nil {
				if err := onDone(i+1, n); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// mu guards dispatch, completion and the recorded errors; holding it
	// across onDone is what serialises the callback.
	var (
		mu       sync.Mutex
		next     int
		done     int
		stopped  bool
		failIdx  = n
		failErr  error
		abortErr error
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		mu.Lock()
		for !stopped && next < n {
			i := next
			next++
			mu.Unlock()
			err := fn(i)
			mu.Lock()
			if err != nil {
				if i < failIdx {
					failIdx, failErr = i, err
				}
				stopped = true
				break
			}
			done++
			if onDone != nil {
				if err := onDone(done, n); err != nil && abortErr == nil {
					abortErr = err
					stopped = true
				}
			}
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if failErr != nil {
		return failErr
	}
	return abortErr
}
