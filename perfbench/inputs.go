package main

import (
	"math"
	"math/rand/v2"

	"omtree"
)

// Inputs come from the benchmark's own generator (PCG from the standard
// library), never from the program's samplers, so a change to the program
// cannot change what it is measured on.

// newRand returns the generator for one input stream of a seed. Distinct
// streams of one seed are independent.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// Input streams.
const (
	streamPoints = iota + 1
	streamChurn
	streamMembers
)

// uniformDisk returns n points uniform on the unit disk around the origin.
func uniformDisk(r *rand.Rand, n int) []omtree.Point2 {
	pts := make([]omtree.Point2, n)
	for i := range pts {
		pts[i] = diskPoint(r, 1)
	}
	return pts
}

func diskPoint(r *rand.Rand, radius float64) omtree.Point2 {
	rho := radius * math.Sqrt(r.Float64())
	theta := 2 * math.Pi * r.Float64()
	return omtree.Point2{X: rho * math.Cos(theta), Y: rho * math.Sin(theta)}
}

// uniformBall returns n points uniform in the unit ball around the origin.
func uniformBall(r *rand.Rand, n int) []omtree.Point3 {
	pts := make([]omtree.Point3, 0, n)
	for len(pts) < n {
		p := omtree.Point3{X: 2*r.Float64() - 1, Y: 2*r.Float64() - 1, Z: 2*r.Float64() - 1}
		if p.X*p.X+p.Y*p.Y+p.Z*p.Z <= 1 {
			pts = append(pts, p)
		}
	}
	return pts
}

// clusters is the fixed layout of the clustered host density: centers and
// widths are constants, so a seed changes which hosts are drawn, not the
// shape of the density the groups are built on.
var clusters = []struct {
	c     omtree.Point2
	sigma float64
}{
	{omtree.Point2{X: 0.10, Y: 0.05}, 0.12},
	{omtree.Point2{X: -0.45, Y: 0.30}, 0.06},
	{omtree.Point2{X: 0.50, Y: 0.40}, 0.09},
	{omtree.Point2{X: -0.30, Y: -0.50}, 0.15},
	{omtree.Point2{X: 0.55, Y: -0.35}, 0.04},
	{omtree.Point2{X: -0.70, Y: -0.05}, 0.08},
	{omtree.Point2{X: 0.05, Y: 0.70}, 0.05},
	{omtree.Point2{X: 0.20, Y: -0.75}, 0.10},
}

// clusteredDisk returns n points on the unit disk with a non-uniform
// density: a fifth uniform (so every region keeps some hosts, the paper's
// density floor) and the rest from the Gaussian clusters above, rejected
// to the disk.
func clusteredDisk(r *rand.Rand, n int) []omtree.Point2 {
	pts := make([]omtree.Point2, 0, n)
	for len(pts) < n {
		if r.Float64() < 0.2 {
			pts = append(pts, diskPoint(r, 1))
			continue
		}
		c := clusters[r.IntN(len(clusters))]
		p := omtree.Point2{X: c.c.X + c.sigma*r.NormFloat64(), Y: c.c.Y + c.sigma*r.NormFloat64()}
		if p.X*p.X+p.Y*p.Y <= 1 {
			pts = append(pts, p)
		}
	}
	return pts
}

// sample returns k distinct values of [0, n) in random order.
func sample(r *rand.Rand, n, k int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}
