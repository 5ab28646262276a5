package tree_test

import (
	"math"
	"testing"

	"omtree/internal/invariant"
	"omtree/internal/tree"
)

// fuzzDist is an edge length whose sums round, so a delay summed in another
// association than parent-then-edge would differ in its low bits.
func fuzzDist(i, j int) float64 { return math.Sqrt(float64(1 + 3*i + 7*j)) }

// fuzzParents decodes one parent entry per byte, into [-2, n]: the
// unattached marker, the root marker, every node id, and one id past the
// end. Byte p+2 decodes to p for every p in that range.
func fuzzParents(data []byte) []int32 {
	const maxNodes = 64
	if len(data) > maxNodes {
		data = data[:maxNodes]
	}
	parents := make([]int32, len(data))
	for i, b := range data {
		parents[i] = int32(b)%int32(len(data)+3) - 2
	}
	return parents
}

// encodeParents is fuzzParents's inverse, for seeding the corpus.
func encodeParents(parents ...int32) []byte {
	data := make([]byte, len(parents))
	for i, p := range parents {
		data[i] = byte(p + 2)
	}
	return data
}

// FuzzFromParents drives the walk with arbitrary small parent arrays, roots
// and degree caps. FromParents must accept an input exactly when
// invariant.CheckParents finds no violation, Delays on the accepted tree
// must return the delays of a breadth-first oracle bit for bit, and
// neither may panic.
func FuzzFromParents(f *testing.F) {
	f.Add(encodeParents(-1, 0, 1, 2), int64(0), int8(0))           // chain
	f.Add(encodeParents(-1, 0, 0, 0, 0), int64(0), int8(3))        // star over the cap
	f.Add(encodeParents(3, 4, 0, -1, 2, 4), int64(3), int8(2))     // ids not topological
	f.Add(encodeParents(-1, 2, 1), int64(0), int8(0))              // cycle
	f.Add(encodeParents(-1, -2, 0), int64(0), int8(0))             // unattached node
	f.Add(encodeParents(-1, 0, 3), int64(0), int8(0))              // parent past the end
	f.Add(encodeParents(-1), int64(1)<<32, int8(0))                // root wraps as an int32
	f.Add(encodeParents(1, -1, 1, 2, 2, 4, 5), int64(1), int8(-1)) // negative cap
	f.Fuzz(func(t *testing.T, data []byte, root64 int64, deg8 int8) {
		parents := fuzzParents(data)
		root, deg := int(root64), int(deg8)
		violations := invariant.CheckParents(parents, len(parents), root, deg, nil, 0)

		tr, err := tree.FromParents(root, parents, deg)
		if (err == nil) != (len(violations) == 0) {
			t.Fatalf("parents %v root %d cap %d: walk error %v, invariant violations %v",
				parents, root, deg, err, violations)
		}
		if err != nil {
			return
		}
		want := oracleDelays(parents, root)
		for v, d := range tr.Delays(fuzzDist) {
			if math.Float64bits(d) != math.Float64bits(want[v]) {
				t.Fatalf("parents %v: Delays of %d is %v, oracle %v", parents, v, d, want[v])
			}
		}
	})
}

// oracleDelays sums fuzzDist breadth-first from the root over child lists
// of its own, sharing no code with the walk.
func oracleDelays(parents []int32, root int) []float64 {
	children := make([][]int, len(parents))
	for v, p := range parents {
		if v != root {
			children[p] = append(children[p], v)
		}
	}
	delays := make([]float64, len(parents))
	queue := []int{root}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, c := range children[v] {
			delays[c] = delays[v] + fuzzDist(v, c)
			queue = append(queue, c)
		}
	}
	return delays
}
