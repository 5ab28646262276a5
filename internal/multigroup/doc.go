// Package multigroup runs many concurrent multicast groups over one shared
// host population. The paper builds one minimal-delay tree per source; a
// deployment (conference platform, CDN edge) runs thousands of groups over
// the same hosts, and rebuilding per-group copies of the coordinate set and
// its polar conversion would multiply the dominant memory and conversion
// costs by the group count.
//
// The split is:
//
//   - Substrate: everything that depends only on the host population, built
//     once and shared read-only — the coordinates in a struct-of-arrays
//     layout (one []float64 per axis), the dense Point2 view for 2-D
//     populations, and a cache of per-source polar views
//     (core.SlotGeometry), the only derived data Polar_Grid reads. Nothing in
//     a Substrate is written after construction except the view cache,
//     which only grows (under a mutex) and whose entries are themselves
//     immutable; Checksum folds every coordinate so tests can assert
//     immutability under concurrent group builds.
//   - GroupTree: one group's private state — its source, degree bound, a
//     bitset of member hosts, and (in 2-D) a core.BuildState borrowing the
//     source's shared SlotGeometry. Joins, leaves, and dirty-cell
//     incremental rebuilds run per group exactly as they do for a
//     single-tree BuildState; the differential suite pins the output
//     byte-identical to Build2 over the same membership.
//
// Host h of the substrate is slot h+1 of every group built on it (slot 0
// is the group's source), and node i >= 1 of a built tree is the i-th
// smallest member host. Distinct GroupTrees may be built and rebuilt
// concurrently; a single GroupTree is not safe for concurrent use.
package multigroup
