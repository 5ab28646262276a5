// Package geom provides the Euclidean and polar geometry primitives used
// throughout the library: fixed-dimension point types (2-D and 3-D), a
// general d-dimensional vector type, polar/spherical/hyperspherical
// coordinates, ring segments and angular boxes (the grid-cell shapes of the
// Polar_Grid algorithm), enclosing circles, and the surface-measure math
// needed to split hyperspherical cells into equal-measure halves in
// dimension d >= 3.
//
// Conventions:
//
//   - 2-D polar coordinates are (R, Theta) with Theta normalized to [0, 2*pi).
//   - 3-D spherical coordinates are (R, Theta, U) where Theta in [0, 2*pi) is
//     the azimuth and U = cos(phi) in [-1, 1] is the cosine of the polar
//     angle. Using U instead of phi makes the surface measure uniform, so
//     equal-measure splits are midpoint splits.
//   - d-dimensional hyperspherical coordinates are (R, Theta, Phi[0..d-3])
//     where Phi[m] in [0, pi] carries surface measure proportional to
//     sin(Phi[m])^(m+1) d Phi[m]; AxisCut places the equal-measure cut along
//     Phi[m] by inverting the corresponding incomplete sine-power integral.
package geom
