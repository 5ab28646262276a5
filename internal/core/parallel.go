package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"omtree/internal/bisect"
	"omtree/internal/tree"
)

// parallelBuildThreshold is the receiver count below which the automatic
// worker selection stays serial: under a few thousand points the whole build
// takes well under a millisecond and goroutine fan-out only adds overhead.
const parallelBuildThreshold = 2048

// unattachedNode mirrors the tree.Builder sentinel for nodes not yet wired
// into a build's parent array.
const unattachedNode int32 = -2

// parentSink is the attachment sink of every build, one-shot and
// incremental: a bare parent array shared by every worker. It is lock-free
// by construction — the wiring attaches each node exactly once, from the one
// cell responsible for it, so concurrent MustAttach calls always target
// distinct entries. Structural validation (spanning, acyclicity, degree
// caps) runs once over the finished array: tree.FromParents in build, or
// at export for BuildState.
type parentSink struct {
	parents []int32
}

var _ bisect.Attacher = (*parentSink)(nil)

// sinkOver resets parents to a tree rooted at node 0 with nothing attached
// yet and returns the sink that wires into it.
func sinkOver(parents []int32) *parentSink {
	for i := range parents {
		parents[i] = unattachedNode
	}
	parents[0] = tree.NoParent
	return &parentSink{parents: parents}
}

// MustAttach wires child under parent. The double-attach check involves no
// synchronization: only the single MustAttach call for a given child ever
// writes (or reads) that child's entry after initialization.
func (s *parentSink) MustAttach(child, parent int) {
	if s.parents[child] != unattachedNode {
		panic(fmt.Sprintf("core: node %d attached twice (wiring bug)", child))
	}
	s.parents[child] = int32(parent)
}

// parRange splits [0, n) into one contiguous chunk per worker and runs fn
// for each chunk, concurrently when workers > 1. fn receives the chunk index
// (for per-worker accumulators) and its half-open range.
func parRange(workers, n int, fn func(w, lo, hi int)) {
	shards := shardsOf(workers, n)
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

// shardsOf returns the number of contiguous chunks parRange splits n items
// into: one per worker, the last possibly short, fewer when n is small.
func shardsOf(workers, n int) int {
	if workers <= 1 || n == 0 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}

// cellBlock sizes the work units of parCells: large enough to amortize the
// atomic fetch, small enough to balance rings whose cells differ wildly in
// population.
const cellBlock = 32

// parCells runs fn(w, c) for every cell id in [0, numCells), distributing
// blocks of cells over the worker pool through an atomic cursor; w is the
// worker index (for per-worker accumulators). Per-cell work is proportional
// to cell population, which varies by orders of magnitude across rings, so
// dynamic block distribution balances far better than contiguous
// pre-partitioning.
func parCells(workers, numCells int, fn func(w, c int)) {
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

// convertCoords fills coords[i+1] = conv(receivers[i]) across the worker
// pool and returns the largest radius. The chunked maximum equals the serial
// maximum exactly — float64 max is association-independent — so the grid
// scale (and hence the whole build) does not depend on the worker count. A
// radius that is NaN or infinite fails the conversion with ErrNonFinite,
// naming the lowest such receiver at any worker count.
func convertCoords[P, C any](workers int, receivers []P, coords []C, conv func(P) C, radius func(C) float64) (float64, error) {
	maxR := make([]float64, workers)
	bad := make([]int, workers)
	parRange(workers, len(receivers), func(w, lo, hi int) {
		var m float64
		for i := lo; i < hi; i++ {
			c := conv(receivers[i])
			coords[i+1] = c
			r := radius(c)
			if !(r <= math.MaxFloat64) {
				bad[w] = i + 1
				return
			}
			if r > m {
				m = r
			}
		}
		maxR[w] = m
	})
	var scale float64
	for w, m := range maxR {
		if i := bad[w] - 1; i >= 0 {
			return 0, fmt.Errorf("core: receiver %d is at distance %v from the source: %w",
				i, radius(coords[i+1]), ErrNonFinite)
		}
		if m > scale {
			scale = m
		}
	}
	return scale, nil
}

// cellTally is one shard's share of the bucketing pass: per cell, how many
// of the shard's receivers landed there and the lowest (score, node id)
// pair among them. Node id 0 is the source, never a receiver, so id 0 marks
// a cell the shard has not seen.
type cellTally struct {
	count []int32
	score []float64
	id    []int32
}

// bucketCells is the bucketing pass every build shares. One sweep over the
// receivers in index order, split into contiguous shards across the worker
// pool, classifies each receiver in g — its cell and its representative
// score against that cell — counts cell populations, and keeps each cell's
// lowest (score, node id) pair per shard; electReps merges those into the
// representatives. A serial prefix pass then turns the per-shard counts into
// write offsets (shard w writes cell c from start[c] + the counts of shards
// before w) and a second sweep places the node ids, so nodes land grouped
// by cell and in index order within a cell — byte-for-byte the layout of a
// serial counting sort, at any worker count. Receiver i is node nodes[i],
// at coords[nodes[i]]; nil nodes means node i+1 at coords[i+1], the
// numbering of the one-shot builds, whose coords[0] is the source.
// classify must be pure: it runs concurrently on disjoint receivers.
func bucketCells[C, G any](workers, numCells int, nodes []int32, coords []C, g G, classify func(G, C) (int32, float64)) (cellGroups, []cellTally) {
	n := len(coords) - 1
	if nodes != nil {
		n = len(nodes)
	}
	nodeOf := func(i int) int32 {
		if nodes == nil {
			return int32(i + 1)
		}
		return nodes[i]
	}
	cellOf := make([]int32, n)
	tallies := make([]cellTally, shardsOf(workers, n))
	parRange(workers, n, func(w, lo, hi int) {
		t := cellTally{
			count: make([]int32, numCells),
			score: make([]float64, numCells),
			id:    make([]int32, numCells),
		}
		for i := lo; i < hi; i++ {
			id := nodeOf(i)
			c, s := classify(g, coords[id])
			cellOf[i] = c
			if t.id[c] == 0 || repBefore(s, id, t.score[c], t.id[c]) {
				t.score[c], t.id[c] = s, id
			}
			t.count[c]++
		}
		tallies[w] = t
	})

	start := make([]int32, numCells+1)
	for c := 0; c < numCells; c++ {
		total := start[c]
		for _, t := range tallies {
			cellCount := t.count[c]
			t.count[c] = total // reuse the count as the shard's write offset
			total += cellCount
		}
		start[c+1] = total
	}

	order := make([]int32, n)
	parRange(workers, n, func(w, lo, hi int) {
		off := tallies[w].count
		for i := lo; i < hi; i++ {
			c := cellOf[i]
			order[off[c]] = nodeOf(i)
			off[c]++
		}
	})
	return cellGroups{start: start, order: order}, tallies
}

// electReps merges bucketCells's per-shard tallies into one representative
// per cell: the member closest to the center of the cell's inner arc
// (§III-B), ties broken by smallest node id — the lowest (score, id) pair
// over the whole cell, which is what one sequential scan of the cell finds.
// Empty cells get -1, and so does cell 0: the source anchors ring 0 itself.
// The merge reuses the first shard's arrays.
func electReps(tallies []cellTally) []int32 {
	best := tallies[0]
	for _, t := range tallies[1:] {
		for c, id := range t.id {
			if id != 0 && (best.id[c] == 0 || repBefore(t.score[c], id, best.score[c], best.id[c])) {
				best.score[c], best.id[c] = t.score[c], id
			}
		}
	}
	reps := best.id
	for c, id := range reps {
		if id == 0 {
			reps[c] = -1
		}
	}
	reps[0] = -1
	return reps
}

// repBefore reports whether a member with score s and node id beats the
// incumbent (bs, bid) in the representative election: lower score first,
// then lower id. NaN ranks after every number, which makes the order total:
// the winner does not depend on the order members are visited in, so
// per-shard minima merge to the answer of one sequential scan.
func repBefore(s float64, id int32, bs float64, bid int32) bool {
	switch {
	case s < bs:
		return true
	case s == bs || (s != s && bs != bs):
		return id < bid
	default:
		return bs != bs && s == s
	}
}
