package omtree_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omtree"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// identityGolden pins the exact trees of a fixed set of builds across
// commits. The differential suites compare one commit's build paths with
// each other, so a change to a primitive every path shares (the cell
// classifier, the representative election, the delay pass) passes them
// unnoticed; this golden does not. Never regenerate it to make a failure go
// away: a diff here means some build now returns a different tree.
const identityGolden = "testdata/tree_identity.golden"

// identityLine fingerprints one build: the ring count, the bits of the
// radius and core delay, and the SHA-256 of the parent array.
func identityLine(name string, res *omtree.Result) string {
	return fmt.Sprintf("%s n=%d k=%d radius=%016x core=%016x parents=%x",
		name, res.Tree.N(), res.K, math.Float64bits(res.Radius), math.Float64bits(res.CoreDelay), parentsHash(res.Tree))
}

// parentsHash is the SHA-256 of t's parent array, each parent as four
// little-endian bytes.
func parentsHash(t *omtree.Tree) []byte {
	h := sha256.New()
	var buf [4]byte
	for _, p := range t.Parents() {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	return h.Sum(nil)
}

// checkGolden compares lines with the golden file at path, or rewrites the
// file under -update, reporting every line that differs.
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("build fingerprint differs:\n got: %s\nwant: %s", g, w)
		}
	}
}

// identityClusters is a lopsided three-blob density: one dense blob off
// center, one sparse wide one and one tight one near the rim.
var identityClusters = []omtree.Cluster{
	{Center: omtree.Point2{X: 0.3, Y: -0.2}, Sigma: 0.08, Weight: 5},
	{Center: omtree.Point2{X: -0.4, Y: 0.3}, Sigma: 0.35, Weight: 3},
	{Center: omtree.Point2{X: 0.1, Y: 0.85}, Sigma: 0.03, Weight: 1},
}

func identityLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, res *omtree.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, identityLine(name, res))
	}

	for _, n := range []int{1000, 100_000} {
		for _, dist := range []string{"uniform", "clustered"} {
			r := omtree.NewRand(uint64(n) + 13)
			var recv []omtree.Point2
			if dist == "uniform" {
				recv = r.UniformDiskN(n, 1)
			} else {
				recv = r.ClusteredDiskN(n, 1, identityClusters)
			}
			for _, deg := range []int{2, 3, 4, 6} {
				for _, w := range []int{1, 2} {
					res, err := omtree.Build(omtree.Point2{}, recv,
						omtree.WithMaxOutDegree(deg), omtree.WithParallelism(w))
					add(fmt.Sprintf("build2/%s/n=%d/deg=%d/w=%d", dist, n, deg, w), res, err)
				}
			}
		}
	}

	for _, n := range []int{1000, 100_000} {
		recv := omtree.NewRand(uint64(n)+3).UniformBall3N(n, 1)
		for _, w := range []int{1, 2} {
			res, err := omtree.Build3D(omtree.Point3{}, recv,
				omtree.WithMaxOutDegree(10), omtree.WithParallelism(w))
			add(fmt.Sprintf("build3/n=%d/deg=10/w=%d", n, w), res, err)
		}
	}

	for _, n := range []int{1000, 20_000} {
		recv := omtree.NewRand(uint64(n)+4).UniformBallDN(n, 4, 1)
		for _, w := range []int{1, 2} {
			res, err := omtree.BuildND(make(omtree.Vec, 4), recv, omtree.WithParallelism(w))
			add(fmt.Sprintf("buildnd/d=4/n=%d/w=%d", n, w), res, err)
		}
	}

	// A retained build driven through a fixed churn script: the first
	// rebuild is full, the next two take the dirty-cell path.
	r := omtree.NewRand(77)
	bs, err := omtree.NewBuildState(omtree.Point2{X: 0.1, Y: -0.05})
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	for _, p := range r.UniformDiskN(5000, 1) {
		slot++
		bs.Add(slot, p)
	}
	rebuild := func(step string) {
		t.Helper()
		res, _, err := bs.Rebuild()
		add("buildstate/"+step, res, err)
	}
	rebuild("initial")
	for s := 7; s <= 5000; s += 7 {
		bs.Remove(s)
	}
	for _, p := range r.UniformDiskN(300, 0.9) {
		slot++
		bs.Add(slot, p)
	}
	rebuild("churned")
	for s := 2; s <= 600; s += 9 {
		if bs.Present(s) {
			bs.Move(s, r.UniformDisk(0.9))
		}
	}
	rebuild("moved")

	// One group on a shared clustered substrate, before and after churn.
	hosts := omtree.NewRand(21).ClusteredDiskN(20_000, 1, identityClusters)
	sub, err := omtree.NewSubstrate(hosts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.NewGroup(omtree.GroupConfig{Source: []float64{-0.2, 0.1}, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < len(hosts); h += 3 {
		if err := g.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := g.Build()
	add("multigroup/initial", res, err)
	for h := 0; h < len(hosts); h += 33 {
		if err := g.Leave(h); err != nil {
			t.Fatal(err)
		}
	}
	for h := 1; h < len(hosts); h += 50 {
		if !g.Has(h) {
			if err := g.Join(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, _, err = g.Build()
	add("multigroup/churned", res, err)
	return lines
}

// TestTreeIdentityGolden fails when any covered build returns a tree, ring
// count, radius or core delay that differs by a single bit from the
// committed fingerprint.
func TestTreeIdentityGolden(t *testing.T) {
	checkGolden(t, identityGolden, identityLines(t))
}
