package tree

import (
	"math"
	"testing"
	"testing/quick"

	"omtree/internal/rng"
)

// chain builds 0 <- 1 <- 2 <- ... <- n-1.
func chain(t *testing.T, n int) *Tree {
	t.Helper()
	b, err := NewBuilder(n, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := b.Attach(i, i-1); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// star builds root 0 with children 1..n-1.
func star(t *testing.T, n int) *Tree {
	t.Helper()
	b, err := NewBuilder(n, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := b.Attach(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func unitDist(i, j int) float64 { return 1 }

// oddDist is an edge length whose sums round, so a delay that was summed in
// another association would differ in its low bits.
func oddDist(i, j int) float64 { return 1 / float64(3+(7*i+5*j)%13) }

// bfsDelays is the delay oracle the walk replaced: a breadth-first pass over
// the child lists, each child's delay its parent's plus the edge.
func bfsDelays(tr *Tree, dist DistFunc) []float64 {
	delays := make([]float64, tr.N())
	queue := []int32{int32(tr.Root())}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, c := range tr.Children(int(v)) {
			delays[c] = delays[v] + dist(int(v), int(c))
			queue = append(queue, c)
		}
	}
	return delays
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuilderBasics(t *testing.T) {
	b, err := NewBuilder(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 4 {
		t.Fatalf("N=%d", b.N())
	}
	if !b.Attached(1) || b.Attached(0) {
		t.Error("initial attachment state wrong")
	}
	if err := b.Attach(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(3, 0); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != 1 || tr.Parent(0) != 1 || tr.Parent(2) != 0 || tr.Parent(1) != -1 {
		t.Errorf("root = %d, parents = %v", tr.Root(), tr.Parents())
	}
	if err := tr.Validate(2); err != nil {
		t.Error(err)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(0, 0, 0); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := NewBuilder(3, 5, 0); err == nil {
		t.Error("expected error for root out of range")
	}

	b, err := NewBuilder(4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(1, 1); err == nil {
		t.Error("expected error for self-attach")
	}
	if err := b.Attach(2, 3); err == nil {
		t.Error("expected error for unattached parent")
	}
	if err := b.Attach(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(1, 0); err == nil {
		t.Error("expected error for double attach")
	}
	if err := b.Attach(2, 0); err == nil {
		t.Error("expected error for degree cap violation")
	}
	if err := b.Attach(9, 0); err == nil {
		t.Error("expected error for out-of-range child")
	}
	if _, err := b.Build(); err == nil {
		t.Error("expected error for incomplete build")
	}
}

func TestBuilderResidualDegree(t *testing.T) {
	b, _ := NewBuilder(3, 0, 2)
	if got := b.ResidualDegree(0); got != 2 {
		t.Errorf("ResidualDegree = %d, want 2", got)
	}
	b.MustAttach(1, 0)
	if got := b.ResidualDegree(0); got != 1 {
		t.Errorf("ResidualDegree = %d, want 1", got)
	}
	unconstrained, _ := NewBuilder(3, 0, 0)
	if got := unconstrained.ResidualDegree(0); got < 1<<30 {
		t.Errorf("unconstrained ResidualDegree = %d", got)
	}
}

func TestMustAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b, _ := NewBuilder(2, 0, 0)
	b.MustAttach(0, 1) // root cannot be re-attached
}

func TestChildrenAndDegrees(t *testing.T) {
	tr := star(t, 5)
	if got := tr.OutDegree(0); got != 4 {
		t.Errorf("root degree = %d, want 4", got)
	}
	if got := tr.MaxOutDegree(); got != 4 {
		t.Errorf("MaxOutDegree = %d, want 4", got)
	}
	kids := tr.Children(0)
	if len(kids) != 4 {
		t.Fatalf("children = %v", kids)
	}
	if len(tr.Children(1)) != 0 {
		t.Error("leaf has children")
	}
}

func TestBFSOrder(t *testing.T) {
	tr := chain(t, 5)
	order := tr.BFSOrder()
	if len(order) != 5 || order[0] != 0 || order[4] != 4 {
		t.Errorf("BFS order = %v", order)
	}
	depths := tr.Depths()
	for i, d := range depths {
		if d != i {
			t.Errorf("depth[%d] = %d, want %d", i, d, i)
		}
	}
	if tr.Height() != 4 {
		t.Errorf("Height = %d, want 4", tr.Height())
	}
}

func TestDelaysAndRadius(t *testing.T) {
	tr := chain(t, 4)
	delays := tr.Delays(unitDist)
	for i, d := range delays {
		if d != float64(i) {
			t.Errorf("delay[%d] = %v", i, d)
		}
	}
	if r := tr.Radius(unitDist); r != 3 {
		t.Errorf("Radius = %v, want 3", r)
	}

	st := star(t, 6)
	if r := st.Radius(unitDist); r != 1 {
		t.Errorf("star radius = %v, want 1", r)
	}
}

func TestWeightedDiameter(t *testing.T) {
	// Chain of 4 unit edges: diameter 3.
	if d := chain(t, 4).WeightedDiameter(unitDist); d != 3 {
		t.Errorf("chain diameter = %v, want 3", d)
	}
	// Star: diameter 2 (leaf-root-leaf).
	if d := star(t, 5).WeightedDiameter(unitDist); d != 2 {
		t.Errorf("star diameter = %v, want 2", d)
	}
	// Single node: 0.
	single, _ := NewBuilder(1, 0, 0)
	tr, err := single.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.WeightedDiameter(unitDist); d != 0 {
		t.Errorf("single diameter = %v", d)
	}
	// Weighted: 0 -> 1 (len 5), 0 -> 2 (len 7): diameter 12.
	b, _ := NewBuilder(3, 0, 0)
	b.MustAttach(1, 0)
	b.MustAttach(2, 0)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		if i == 0 && j == 1 {
			return 5
		}
		return 7
	}
	if d := w.WeightedDiameter(dist); d != 12 {
		t.Errorf("weighted diameter = %v, want 12", d)
	}
}

func TestPathToRoot(t *testing.T) {
	tr := chain(t, 4)
	path := tr.PathToRoot(3)
	want := []int{3, 2, 1, 0}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	cases := []struct {
		name    string
		root    int
		parents []int32
	}{
		{"cycle", 0, []int32{-1, 2, 1}},
		{"self loop", 0, []int32{-1, 1}},
		{"two roots", 0, []int32{-1, -1}},
		{"root has parent", 1, []int32{1, 0}},
		{"parent out of range", 0, []int32{-1, 7}},
		{"disconnected marker", 0, []int32{-1, -2}},
		{"root beyond int32", 1 << 32, []int32{-1}},
		{"negative root", -1, []int32{-1}},
		{"empty", 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromParents(tc.root, tc.parents, 0); err == nil {
				t.Errorf("FromParents accepted %v", tc.parents)
			}
		})
	}
}

func TestFromParentsTakesOwnership(t *testing.T) {
	parents := []int32{-1, 0, 1}
	tr, err := FromParents(0, parents, 0)
	if err != nil {
		t.Fatal(err)
	}
	parents[2] = 0 // the tree aliases the array it was handed
	if tr.Parent(2) != 0 {
		t.Errorf("FromParents copied its array: parent of 2 = %d", tr.Parent(2))
	}
}

func TestValidateDegreeCap(t *testing.T) {
	parents := []int32{-1, 0, 0, 0}
	if _, err := FromParents(0, parents, 2); err == nil {
		t.Error("expected degree violation")
	}
	if _, err := FromParents(0, parents, 3); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestBuilderSpentAfterBuild(t *testing.T) {
	b, _ := NewBuilder(2, 0, 0)
	b.MustAttach(1, 0)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	// A spent builder must not corrupt the built tree; attaching should
	// error or panic, not silently mutate.
	defer func() { _ = recover() }()
	if err := b.Attach(1, 0); err == nil {
		t.Error("spent builder accepted attach")
	}
}

func TestRandomTreePropertyQuick(t *testing.T) {
	// Random valid attachment sequences always produce trees that pass
	// Validate and have consistent depth/delay relations. Node ids are a
	// random relabeling of the attachment order, as in a build, where ids
	// follow the input: a walk up from one node then climbs through several
	// ancestors nobody has visited yet.
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw%40) + 2
		r := rng.New(seed)
		id := r.Perm(n)
		b, err := NewBuilder(n, id[0], 0)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if err := b.Attach(id[i], id[r.Intn(i)]); err != nil {
				return false
			}
		}
		tr, err := b.Build()
		if err != nil {
			return false
		}
		if err := tr.Validate(0); err != nil {
			return false
		}
		// Delays reproduces the breadth-first oracle bit for bit.
		if !sameFloats(tr.Delays(oddDist), bfsDelays(tr, oddDist)) {
			return false
		}
		// With unit distances, delay == depth for every node.
		delays := tr.Delays(unitDist)
		for i, d := range tr.Depths() {
			if math.Abs(delays[i]-float64(d)) > 1e-12 {
				return false
			}
		}
		// Radius equals max delay and is at most n-1.
		if tr.Radius(unitDist) > float64(n-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAvgDelay(t *testing.T) {
	tr := chain(t, 4) // delays 0,1,2,3
	if got := tr.AvgDelay(unitDist); got != 2 {
		t.Errorf("AvgDelay = %v, want 2", got)
	}
	single, _ := NewBuilder(1, 0, 0)
	one, err := single.Build()
	if err != nil {
		t.Fatal(err)
	}
	if one.AvgDelay(unitDist) != 0 {
		t.Error("single-node avg delay not 0")
	}
}

func TestDepthHistogram(t *testing.T) {
	tr := star(t, 5)
	h := tr.DepthHistogram()
	if len(h) != 2 || h[0] != 1 || h[1] != 4 {
		t.Errorf("histogram = %v", h)
	}
	ch := chain(t, 3)
	h = ch.DepthHistogram()
	if len(h) != 3 || h[0] != 1 || h[1] != 1 || h[2] != 1 {
		t.Errorf("chain histogram = %v", h)
	}
}

func TestSubtreeSizesAndLoad(t *testing.T) {
	tr := chain(t, 4)
	sizes := tr.SubtreeSizes()
	want := []int{4, 3, 2, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	load := tr.ForwardingLoad()
	for i, w := range []int{3, 2, 1, 0} {
		if load[i] != w {
			t.Fatalf("load = %v", load)
		}
	}
	st := star(t, 6)
	if st.SubtreeSizes()[0] != 6 {
		t.Error("star root subtree size wrong")
	}
}
