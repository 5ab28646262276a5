// Package grid implements the hierarchical equal-measure grids at the heart
// of the Polar_Grid algorithm (paper §III-A, §IV-B):
//
//   - PolarGrid: the 2-D polar grid over a disk — k dividing circles at radii
//     scale/sqrt(2)^(k-i) produce k+1 "rings" (ring 0 is the inner disk, ring
//     i >= 1 an annulus), with ring i divided into 2^i equal-area segments,
//     each aligned with exactly two segments of ring i+1.
//   - SphereGrid3: the 3-D analogue over a ball — shell radii grow by
//     cbrt(2) so each shell doubles the enclosed volume, and shell cells are
//     split alternately along the azimuth and the cosine of the polar angle
//     (both midpoint splits in (theta, u) space, where the surface measure is
//     uniform).
//   - GridD: the general d-dimensional grid — shell radii grow by 2^(1/d)
//     and cells split cycling through the d-1 angular axes, with polar-angle
//     splits placed at equal-measure points of the sin^p weights.
//
// All three share the cell numbering: ring/shell i holds 2^i cells, cell j
// of ring i is aligned with cells 2j and 2j+1 of ring i+1, and the global
// cell id of (ring i, index j) is 2^i - 1 + j.
//
// The grids do not own points; they map already-computed polar coordinates
// to cell ids. MaxFeasibleKAnalytic (and its 3-D, d-dimensional and
// slot-subset counterparts) selects the deepest grid whose interior cells
// (rings 1..k-1 — ring 0 is covered by the source, and the outermost ring is
// exempted by the paper's property 3) are all occupied, from an
// occupancy-lemma estimate and one verification pass; capped at a pinned
// depth k, the same search tells whether k is feasible. The downward trial
// loops that define the answer (MaxFeasibleK and friends, one occupancy
// scan per candidate depth) live in the package's tests as the oracles the
// searches are checked against.
package grid
