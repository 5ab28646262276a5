// Package par holds the worker-pool fan-outs the build pipeline shares:
// contiguous chunks for per-point passes (Range) and dynamically handed-out
// blocks for per-cell passes (Cells). Both run the serial loop on one
// worker, and both return only once every worker is done, which publishes
// whatever the workers wrote to the caller.
package par

import (
	"sync"
	"sync/atomic"
)

// Range splits [0, n) into one contiguous chunk per worker and runs fn for
// each chunk, concurrently when workers > 1. fn receives the chunk index
// (for per-worker accumulators, at most Shards(workers, n) of them) and its
// half-open range.
func Range(workers, n int, fn func(w, lo, hi int)) {
	shards := Shards(workers, n)
	if shards == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}

// Shards returns the number of contiguous chunks Range splits n items
// into: one per worker, the last possibly short, fewer when n is small.
// No chunk is empty unless n is 0, which makes one empty chunk.
func Shards(workers, n int) int {
	if workers <= 1 || n == 0 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}

// cellBlock sizes the work units of Cells: large enough to amortize the
// atomic fetch, small enough to balance rings whose cells differ wildly in
// population.
const cellBlock = 32

// Cells runs fn(w, c) for every cell id in [0, numCells), distributing
// blocks of cells over the worker pool through an atomic cursor; w is the
// worker index (for per-worker accumulators). Per-cell work is proportional
// to cell population, which varies by orders of magnitude across rings, so
// dynamic block distribution balances far better than contiguous
// pre-partitioning. One worker takes the cells in id order.
func Cells(workers, numCells int, fn func(w, c int)) {
	if workers <= 1 {
		for c := 0; c < numCells; c++ {
			fn(0, c)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(cellBlock)) - cellBlock
				if lo >= numCells {
					return
				}
				hi := lo + cellBlock
				if hi > numCells {
					hi = numCells
				}
				for c := lo; c < hi; c++ {
					fn(w, c)
				}
			}
		}(w)
	}
	wg.Wait()
}
