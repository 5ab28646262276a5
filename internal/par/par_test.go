package par

import (
	"sync/atomic"
	"testing"
)

// TestRangeCoversEachIndexOnce checks that Range hands out every index of
// [0, n) exactly once, in at most Shards(workers, n) non-empty chunks whose
// index w is below that count, for n around and below the worker count.
func TestRangeCoversEachIndexOnce(t *testing.T) {
	for n := 0; n <= 70; n++ {
		for w := 1; w <= 7; w++ {
			hits := make([]atomic.Int32, n)
			var chunks atomic.Int32
			shards := Shards(w, n)
			Range(w, n, func(i, lo, hi int) {
				chunks.Add(1)
				if i < 0 || i >= shards {
					t.Errorf("n=%d w=%d: chunk index %d outside [0, %d)", n, w, i, shards)
				}
				if lo >= hi && n > 0 {
					t.Errorf("n=%d w=%d: empty chunk [%d, %d)", n, w, lo, hi)
				}
				for j := lo; j < hi; j++ {
					hits[j].Add(1)
				}
			})
			if c := int(chunks.Load()); c != shards || c > w {
				t.Errorf("n=%d w=%d: %d chunks, Shards says %d", n, w, c, shards)
			}
			for j := range hits {
				if h := hits[j].Load(); h != 1 {
					t.Fatalf("n=%d w=%d: index %d handed out %d times", n, w, j, h)
				}
			}
		}
	}
}

// TestCellsCoversEachCellOnce checks that Cells runs every cell exactly
// once, on a worker index below the worker count, and in id order on one
// worker.
func TestCellsCoversEachCellOnce(t *testing.T) {
	for _, n := range []int{0, 1, cellBlock - 1, cellBlock, 5*cellBlock + 3} {
		for w := 1; w <= 4; w++ {
			hits := make([]atomic.Int32, n)
			var order []int
			Cells(w, n, func(i, c int) {
				if i < 0 || i >= w {
					t.Errorf("n=%d w=%d: worker index %d", n, w, i)
				}
				hits[c].Add(1)
				if w == 1 {
					order = append(order, c)
				}
			})
			for c := range hits {
				if h := hits[c].Load(); h != 1 {
					t.Fatalf("n=%d w=%d: cell %d run %d times", n, w, c, h)
				}
			}
			for i, c := range order {
				if c != i {
					t.Fatalf("n=%d: serial order %v", n, order)
				}
			}
		}
	}
}
